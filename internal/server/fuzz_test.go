package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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

// FuzzLoadTenantsFile holds the tenant table to all-or-nothing on
// arbitrary file bytes: a table SetTenants rejects leaves TenantNames
// unchanged, one it accepts installs exactly its tenants, and a table
// that loads re-marshals to a file that loads equal configs.
func FuzzLoadTenantsFile(f *testing.F) {
	for _, seed := range []string{
		`{"tenants":[{"name":"acme","key":"k1","weight":3,"rate_per_sec":2.5},{"name":"guest","key":""}]}`,
		`{"tenants":[{"name":"a","key":"k","max_concurrent":2,"max_queue":4,"burst":8}]}`,
		`{"tenants":[]}`,
		`{"tenants":[{"name":"a","key":"k"},{"name":"a","key":"k2"}]}`,
		`{"tenants":[{"name":"a","key":"k"},{"name":"b","key":"k"}]}`,
		`{"tenants":[{"name":"jobs","key":"k"}]}`,
		`{"tenants":[{"name":"a","key":"k","rate_per_sec":-1}]}`,
		`{"tenants":[{"name":"a","key":"k","rate":5}]}`,
		`{"tenants":[{"name":"a","key":"ka"}]}{"tenants":[{"name":"b","key":"kb"}]}`,
	} {
		f.Add([]byte(seed))
	}
	known := []TenantConfig{{Name: "alice", Key: "ka"}, {Name: "bob", Key: "kb", Weight: 2}}
	srv := New(Options{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := srv.SetTenants(known); err != nil {
			t.Fatal(err)
		}
		before := srv.TenantNames()
		path := filepath.Join(t.TempDir(), "tenants.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		configs, err := LoadTenantsFile(path)
		if err != nil {
			return
		}
		if err := srv.SetTenants(configs); err != nil {
			if got := srv.TenantNames(); !reflect.DeepEqual(got, before) {
				t.Fatalf("rejected table (%v) changed the tenants from %v to %v", err, before, got)
			}
		} else {
			want := []string{AnonymousTenant}
			if len(configs) > 0 {
				want = want[:0]
				for _, c := range configs {
					want = append(want, c.Name)
				}
				sort.Strings(want)
			}
			if got := srv.TenantNames(); !reflect.DeepEqual(got, want) {
				t.Fatalf("accepted table installed tenants %v, want %v", got, want)
			}
		}
		again, err := json.Marshal(tenantsFile{Tenants: configs})
		if err != nil {
			t.Fatalf("loaded table does not encode: %v", err)
		}
		if err := os.WriteFile(path, again, 0o644); err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadTenantsFile(path)
		if err != nil {
			t.Fatalf("re-marshalled table %s does not load: %v", again, err)
		}
		if !reflect.DeepEqual(reloaded, configs) {
			t.Fatalf("round trip changed the table:\n%+v\n%+v", configs, reloaded)
		}
	})
}

// legacySweepJobResult is SweepJobResult with the []jsonFloat value list
// it carried before valueList: the reference for the bytes of sweep
// frames and job records.
type legacySweepJobResult struct {
	BestIndex int         `json:"best_index"`
	BestPoint []float64   `json:"best_point,omitempty"`
	BestValue *jsonFloat  `json:"best_value,omitempty"`
	Values    []jsonFloat `json:"values,omitempty"`
}

// FuzzValueListMatchesElementwise holds valueList's encoder to the
// per-element []jsonFloat path it replaces. The input, read as
// little-endian float64 bit patterns (NaN payloads, ±Inf and −0
// included), must encode byte for byte as []jsonFloat does, bare and
// inside a sweep job payload. The text seeds, JSON value lists, are
// arbitrary bit patterns here.
func FuzzValueListMatchesElementwise(f *testing.F) {
	for _, seed := range []string{
		`[1.5,"+Inf","-Inf","NaN",-0,0,1e-320,2.2250738585072014e-308]`,
		`null`, `[]`, " [ 1 ,\t\"2\" ]\n", `["\u004e\u0061\u004e","\u0031.5"]`, `["NaN","1\/2"]`, `["+inf","-Infinity","nan"]`,
		`[1e400]`, `["1e400"]`, `["0x1p-2"]`, `["1_0"]`, `[""]`, `[" 1"]`, `["é"]`,
		`[true]`, `[null]`, `[[1]]`, `[{}]`, `{}`, `"1"`, `1`, `[1,]`, `[1 2]`,
	} {
		f.Add([]byte(seed))
	}
	var bits []byte
	for _, v := range []uint64{0x7ff8000000000001, 0xfff0000000000000, 0x7ff0000000000000, 1 << 63, 1, 0x7fefffffffffffff} {
		bits = binary.LittleEndian.AppendUint64(bits, v)
	}
	f.Add(bits)

	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []jsonFloat
		if len(data) > 0 {
			vals = make([]jsonFloat, len(data)/8)
		}
		for i := range vals {
			vals[i] = jsonFloat(math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
		}
		enc, err := json.Marshal(valueList(vals))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(vals)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("encoding differs:\nvalueList  %s\n[]jsonFloat %s", enc, ref)
		}
		v := jsonFloat(-1.5)
		enc, err = json.Marshal(SweepJobResult{BestIndex: 2, BestPoint: []float64{1, 2}, BestValue: &v, Values: vals})
		if err != nil {
			t.Fatal(err)
		}
		ref, err = json.Marshal(legacySweepJobResult{BestIndex: 2, BestPoint: []float64{1, 2}, BestValue: &v, Values: vals})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("payload encoding differs:\nvalueList  %s\n[]jsonFloat %s", enc, ref)
		}
	})
}
