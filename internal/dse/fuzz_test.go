package dse

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// FuzzLoadCheckpoint holds LoadCheckpoint to its load-everything-or-
// change-nothing contract on arbitrary bytes: a failed load returns the
// zero Checkpoint, and a successful one survives a canonical rewrite —
// its entries written back with the shortest round-trip value encoding
// and reloaded keep the version, the signature, the indices and every
// value's bits.
func FuzzLoadCheckpoint(f *testing.F) {
	space, err := NewSpace(Param{Name: "x", Values: []float64{1, 2, 3, 4, 5}})
	if err != nil {
		f.Fatal(err)
	}
	values := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0.1}
	path := filepath.Join(f.TempDir(), "seed.ck")
	if err := SaveCheckpoint(path, space, values, []int{4, 0, 2, 1, 3}); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1,"signature":"","indices":null,"values":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.ck")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(in)
		if err != nil {
			if !reflect.DeepEqual(ck, Checkpoint{}) {
				t.Fatalf("failed load returned a partial checkpoint %+v: %v", ck, err)
			}
			return
		}

		canon := Checkpoint{Version: ck.Version, Signature: ck.Signature, Indices: ck.Indices}
		canon.RawValues = make([]string, len(ck.Values))
		for i, v := range ck.Values {
			canon.RawValues[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		raw, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "out.ck")
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := LoadCheckpoint(out)
		if err != nil {
			t.Fatalf("canonical rewrite %s does not reload: %v", raw, err)
		}
		if again.Version != ck.Version || again.Signature != ck.Signature {
			t.Fatalf("rewrite changed the header: %d %q → %d %q", ck.Version, ck.Signature, again.Version, again.Signature)
		}
		if len(again.Indices) != len(ck.Indices) || len(again.Values) != len(ck.Values) {
			t.Fatalf("rewrite changed the entry count: %d/%d → %d/%d",
				len(ck.Indices), len(ck.Values), len(again.Indices), len(again.Values))
		}
		for i := range ck.Indices {
			if again.Indices[i] != ck.Indices[i] {
				t.Fatalf("rewrite changed index %d: %d → %d", i, ck.Indices[i], again.Indices[i])
			}
			if a, b := math.Float64bits(ck.Values[i]), math.Float64bits(again.Values[i]); a != b {
				t.Fatalf("rewrite changed value %d: %x → %x", i, a, b)
			}
		}
	})
}
