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

// FuzzResolveModel holds the catalog's model resolution to determinism
// on arbitrary spec bytes: a spec that decodes resolves the same way
// twice, to one fingerprint that its re-marshalled form resolves to
// again, or fails twice with one status and code. Messages are not
// compared: overrides are checked in map order, so a spec with two bad
// keys may name either.
func FuzzResolveModel(f *testing.F) {
	for _, seed := range []string{
		`{"app":"tmm"}`,
		`{"app":"fft","overrides":{"fseq":0.1,"ic0":3e9}}`,
		`{"schema":"catalog/2","app":"stencil","family":"gpu","params":{"m_fma":0.7,"f_fp32":0.2,"lane_area":0.04,"sm_area":3}}`,
		`{"schema":"catalog/2","app":"fluidanimate","family":"commsync","params":{"delta_sync":0,"delta_comm":1}}`,
		`{"app":"tmm","overrides":{"fseq":0,"fmem":1,"overlap":1,"ch":1,"cm":1,"pmr_ratio":0,"pamp_ratio":0,"ic0":5e-324}}`,
		`{"app":"tmm","chip":{"total_area":1e-6,"fixed_area":0,"l1_density_kb":1e-6,"l2_density_kb":1e-6,"l1_hit_cycles":0,"mem_bandwidth":1e-6,"pollack_k0":0,"pollack_phi0":0}}`,
		`{"app":"tmm","chip":{"mem_latency":1.7976931348623157e308,"queue_sensitivity":1.7976931348623157e308}}`,
		`{"app":"tmm","overrides":{"fseq":1.5}}`,
		`{"app":"tmm","overrides":{"fseq":-1,"fmem":2}}`,
		`{"app":"tmm","chip":{"total_area":0}}`,
		`{"app":"tmm","overrides":{"speed":1}}`,
		`{"app":"tmm","chip":{"warp":1}}`,
		`{"schema":"catalog/2","app":"tmm","family":"gpu","params":{"m_fma":2}}`,
		`{"schema":"catalog/2","app":"tmm","family":"gpu","params":{"lanes":1}}`,
		`{"schema":"catalog/3","app":"tmm"}`,
		`{"schema":"catalog/2","app":"tmm","family":"tpu"}`,
		`{"app":"doom"}`,
		`{"app":"tmm","extra":1}`,
		`{"app":"tmm"}{"app":"fft"}`,
	} {
		f.Add([]byte(seed))
	}
	cat := DefaultCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec ModelSpec
		if err := decodeStrict(bytes.NewReader(data), &spec); err != nil {
			return
		}
		m1, err1 := cat.ResolveModel(spec)
		m2, err2 := cat.ResolveModel(spec)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("resolving %s twice: %v, then %v", data, err1, err2)
		}
		if err1 != nil {
			s1, b1 := classify(err1)
			s2, b2 := classify(err2)
			if s1 != s2 || b1.Code != b2.Code {
				t.Fatalf("resolving %s twice failed as %d %s, then %d %s", data, s1, b1.Code, s2, b2.Code)
			}
			return
		}
		fp := m1.Fingerprint()
		if m2.Fingerprint() != fp {
			t.Fatalf("resolving %s twice gave fingerprints\n%s\n%s", data, fp, m2.Fingerprint())
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("decoded spec does not encode: %v", err)
		}
		var spec2 ModelSpec
		if err := decodeStrict(bytes.NewReader(again), &spec2); err != nil {
			t.Fatalf("re-marshalled spec %s does not decode: %v", again, err)
		}
		m3, err := cat.ResolveModel(spec2)
		if err != nil {
			t.Fatalf("re-marshalled spec %s does not resolve: %v", again, err)
		}
		if m3.Fingerprint() != fp {
			t.Fatalf("round trip %s → %s changed the fingerprint", data, again)
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
