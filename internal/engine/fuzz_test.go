package engine

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadSnapshot holds LoadSnapshot to its all-or-nothing contract on
// arbitrary blobs: a failed load leaves the cache exactly as it was, and
// a successful one is stable under save → load → save. Most inputs are
// resealed with a fresh trailer so mutations get past the checksum to
// the parser; when mode%8 == 0 the bytes load as given, which fuzzes the
// checksum path too.
func FuzzLoadSnapshot(f *testing.F) {
	src := New(Options{Workers: 1, CacheSize: 64})
	fillEngine(f, src, snapEval{fp: "snap/fuzz"}, 8)
	if _, err := src.Evaluate(context.Background(), snapEval{fp: "snap/fuzz2"}, []float64{-1}); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.snap")
	if _, err := src.SaveSnapshot(path); err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob[:len(blob)-8], uint8(1))
	f.Add(blob, uint8(0))

	held, heldPoint := snapEval{fp: "snap/held"}, []float64{1, 2, 3}
	f.Fuzz(func(t *testing.T, payload []byte, mode uint8) {
		data := payload
		if mode%8 != 0 {
			data = sealSnapshot(payload)
		}
		dir := t.TempDir()
		in := filepath.Join(dir, "in.snap")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e := New(Options{Workers: 1, CacheSize: 64})
		if _, err := e.Evaluate(context.Background(), held, heldPoint); err != nil {
			t.Fatal(err)
		}

		n, err := e.LoadSnapshot(in)
		if err != nil {
			if n != 0 || e.CacheLen() != 1 {
				t.Fatalf("failed load changed the cache (n=%d, cache=%d, want 0 and 1): %v", n, e.CacheLen(), err)
			}
			if o := e.Do(context.Background(), held, heldPoint); !o.CacheHit {
				t.Fatalf("failed load lost the held entry: %v", err)
			}
			return
		}

		s1, s2 := filepath.Join(dir, "s1.snap"), filepath.Join(dir, "s2.snap")
		if _, err := e.SaveSnapshot(s1); err != nil {
			t.Fatalf("saving a loaded cache: %v", err)
		}
		e2 := New(Options{Workers: 1, CacheSize: 64})
		if _, err := e2.LoadSnapshot(s1); err != nil {
			t.Fatalf("reloading a saved snapshot: %v", err)
		}
		if _, err := e2.SaveSnapshot(s2); err != nil {
			t.Fatalf("re-saving: %v", err)
		}
		b1, err := os.ReadFile(s1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("save → load → save is not byte-stable (%d vs %d bytes)", len(b1), len(b2))
		}
	})
}
