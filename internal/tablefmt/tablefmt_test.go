package tablefmt

import (
	"strings"
	"testing"
)

func TestTextRendering(t *testing.T) {
	tb := New("demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long-name", "2.5")
	out := tb.String()
	if !strings.Contains(out, "# demo") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Alignment: all data lines equal width of the widest.
	if !strings.HasPrefix(lines[3], "alpha ") {
		t.Fatalf("bad alignment: %q", lines[3])
	}
}

func TestRowPaddingAndTruncation(t *testing.T) {
	tb := New("", "a", "b")
	tb.AddRow("only")
	tb.AddRow("x", "y", "z")
	if tb.Rows[0][1] != "" {
		t.Fatal("short row not padded")
	}
	if len(tb.Rows[1]) != 2 {
		t.Fatal("long row not truncated")
	}
}

func TestCSV(t *testing.T) {
	tb := New("t", "a", "b")
	tb.AddRow("plain", `with,comma`)
	tb.AddRow(`quote"inside`, "x")
	csv := tb.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if lines[0] != "a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `plain,"with,comma"` {
		t.Fatalf("row1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], `\"`) {
		t.Fatalf("row2 quoting = %q", lines[2])
	}
}

func TestHelpers(t *testing.T) {
	if Float(0.5) != "0.5" {
		t.Fatalf("Float = %q", Float(0.5))
	}
	if Int(42) != "42" {
		t.Fatalf("Int = %q", Int(42))
	}
}

func TestUntitledTableNoTitleLine(t *testing.T) {
	tb := New("", "a")
	tb.AddRow("1")
	if strings.HasPrefix(tb.String(), "#") {
		t.Fatal("untitled table rendered a title")
	}
}
