package server

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/dse"
)

// FuzzJobStoreLoad holds jobStore.load to its contract on arbitrary
// record bytes: it either fails, or returns a record that carries the
// ID its file is named after and survives a save/load round trip with
// an unchanged encoding.
func FuzzJobStoreLoad(f *testing.F) {
	const id = "j0123456789abcdef"
	seedStore := &jobStore{dir: f.TempDir()}
	if err := seedStore.save(&Job{
		ID: id, Tenant: "alice", Kind: "sweep", State: JobSucceeded, Attempts: 2,
		Created: "2026-01-01T00:00:00Z", Finished: "2026-01-01T00:00:01Z",
		Request: json.RawMessage(`{"model":{"app":"tmm"},"space":{"per":2}}`),
		Result:  json.RawMessage(`{"best_index":3,"values":[1.5,"+Inf"]}`),
		Report:  &dse.SweepReport{Total: 4, Completed: []int{0, 1, 2, 3}, Failed: []dse.IndexFailure{{Index: 5, Attempts: 3, Err: "boom"}}},
		Error:   &ErrorBody{Code: "internal", Message: "x"},
	}); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedStore.path(id))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"id":"j0123456789abcdef","state":"running","request":null}`))
	f.Add([]byte(`{"id":"../escaped","state":"running"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st := &jobStore{dir: t.TempDir()}
		if err := os.WriteFile(st.path(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := st.load(id)
		if err != nil {
			return
		}
		if j.ID != id {
			t.Fatalf("load returned id %q from %s.json", j.ID, id)
		}
		before, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("loaded record does not encode: %v", err)
		}
		if err := st.save(j); err != nil {
			t.Fatalf("save: %v", err)
		}
		again, err := st.load(id)
		if err != nil {
			t.Fatalf("saved record %s does not reload: %v", before, err)
		}
		after, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("round trip changed the record:\n%s\n%s", before, after)
		}
	})
}
