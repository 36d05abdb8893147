package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
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

// fuzzIndices maps each fuzz byte to an index: a small signed value
// around the space, except that 0x7f and 0x80 stand for the largest and
// smallest int.
func fuzzIndices(b []byte) []int {
	out := make([]int, len(b))
	for i, c := range b {
		switch c {
		case 0x7f:
			out[i] = math.MaxInt
		case 0x80:
			out[i] = math.MinInt
		default:
			out[i] = int(int8(c))
		}
	}
	return out
}

// subSweepRule is checkSubSweep's rule by brute force: 8 bytes of bits
// per forwarded index, a completed list in ascending order, and every
// claimed (completed or failed) index inside the space and claimed no
// more often than the group holds it.
func subSweepRule(bits, size int, group, completed, claims []int) bool {
	if bits != 8*len(group) || !sort.IntsAreSorted(completed) {
		return false
	}
	for i, c := range claims {
		if c < 0 || c >= size {
			return false
		}
		forwarded, earlier := 0, 0
		for _, g := range group {
			if g == c {
				forwarded++
			}
		}
		for _, e := range claims[:i] {
			if e == c {
				earlier++
			}
		}
		if earlier >= forwarded {
			return false
		}
	}
	return true
}

// FuzzCheckSubSweep holds checkSubSweep to subSweepRule over arbitrary
// groups, bit counts (8 bytes per forwarded index plus a skew in bytes)
// and completed and failed indices, out-of-range, negative, repeated and
// unsorted ones included: it accepts a frame exactly when the rule does,
// and never panics.
func FuzzCheckSubSweep(f *testing.F) {
	f.Add(uint8(8), int8(0), []byte{1, 3, 5}, []byte{5, 1}, []byte{3})
	f.Add(uint8(8), int8(-1), []byte{1, 3, 5}, []byte{1}, []byte{})
	f.Add(uint8(8), int8(5), []byte{1, 3, 5}, []byte{1, 3, 5}, []byte{})
	f.Add(uint8(8), int8(0), []byte{1, 3}, []byte{1}, []byte{1})
	f.Add(uint8(8), int8(0), []byte{1, 3, 3}, []byte{3, 3}, []byte{})
	f.Add(uint8(8), int8(0), []byte{1, 9}, []byte{9}, []byte{})
	f.Add(uint8(8), int8(0), []byte{0xff, 2}, []byte{0xff}, []byte{})
	f.Add(uint8(0), int8(0), []byte{0x7f, 0x80}, []byte{0x7f}, []byte{0x80})
	f.Add(uint8(8), int8(0), []byte{1, 3, 5}, []byte{1, 5}, []byte{3})
	f.Add(uint8(8), int8(0), []byte{3, 1, 3}, []byte{1, 3}, []byte{3})
	f.Add(uint8(8), int8(0), []byte{3, 1, 3}, []byte{3, 3}, []byte{3})
	f.Add(uint8(8), int8(-8), []byte{1, 3, 5}, []byte{1, 3}, []byte{})
	f.Fuzz(func(t *testing.T, size uint8, skew int8, groupB, completedB, failedB []byte) {
		group := fuzzIndices(groupB)
		res := &SweepResult{Type: "result"}
		if n := 8*len(group) + int(skew); n > 0 {
			res.Bits = make([]byte, n)
		}
		res.Report.Completed = fuzzIndices(completedB)
		failed := fuzzIndices(failedB)
		for _, idx := range failed {
			res.Report.Failed = append(res.Report.Failed, dse.IndexFailure{Index: idx})
		}
		err := checkSubSweep(res, int(size), group)
		claims := append(append([]int(nil), res.Report.Completed...), failed...)
		want := subSweepRule(len(res.Bits), int(size), group, res.Report.Completed, claims)
		if (err == nil) != want {
			t.Fatalf("size %d, group %v, %d bytes, completed %v, failed %v: checkSubSweep = %v, rule accepts = %v",
				size, group, len(res.Bits), res.Report.Completed, failed, err, want)
		}
	})
}

// FuzzPeerSweepBitsRoundTrip holds the peer-sweep frame to bit identity
// for arbitrary values, read from the input as little-endian IEEE-754
// bit patterns (the seeds carry both NaN payloads, −0, ±Inf, the
// smallest and largest subnormals and MaxFloat64, which decimal values
// cannot: a decimal list writes every NaN as "NaN"). The values are a
// dense space; packed in flat order, their bits are the input. The
// group forwards the space backwards and then its last index again. The
// frame, encoded as the peer endpoint encodes it and decoded as the
// coordinator decodes it, must pass checkSubSweep and read back every
// forwarded value's bits.
func FuzzPeerSweepBitsRoundTrip(f *testing.F) {
	var seed []byte
	for _, v := range []uint64{
		0xfff8000000000000, 0x7ff8000000000001, 1 << 63, 0x7ff0000000000000,
		0xfff0000000000000, 1, 0x000fffffffffffff, 0x7fefffffffffffff,
	} {
		seed = binary.LittleEndian.AppendUint64(seed, v)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		values := make([]float64, len(data)/8)
		flat := make([]int, len(values))
		for i := range values {
			values[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			flat[i] = i
		}
		if dense := groupBits(values, flat); !bytes.Equal(dense, data[:8*len(values)]) {
			t.Fatalf("dense bits %x, want the input %x", dense, data[:8*len(values)])
		}
		group := make([]int, 0, len(values)+1)
		for i := len(values) - 1; i >= 0; i-- {
			group = append(group, i)
		}
		if len(values) > 0 {
			group = append(group, len(values)-1)
		}
		completed := append([]int(nil), group...)
		sort.Ints(completed)
		var line bytes.Buffer
		err := json.NewEncoder(&line).Encode(SweepResult{
			Type:   "result",
			Report: dse.SweepReport{Total: len(group), Completed: completed},
			Bits:   groupBits(values, group),
		})
		if err != nil {
			t.Fatal(err)
		}
		var frame subSweepFrame
		if err := json.Unmarshal(line.Bytes(), &frame); err != nil {
			t.Fatalf("frame %s does not decode: %v", line.Bytes(), err)
		}
		if err := checkSubSweep(&frame.SweepResult, len(values), group); err != nil {
			t.Fatalf("frame %s: %v", line.Bytes(), err)
		}
		for k, idx := range group {
			if got, want := math.Float64bits(bitsAt(frame.Bits, k)), math.Float64bits(values[idx]); got != want {
				t.Fatalf("bits[%d] (index %d) = %016x, want %016x", k, idx, got, want)
			}
		}
	})
}

// FuzzIndexListMatchesInts holds dse.IndexList to the reflective []int
// decode it replaces on the sweep wire: arbitrary bytes must decode into
// it exactly when they decode into []int, and to the same ints, bare, as
// a sweep request's indices, and as a result frame's completed and
// pending lists. The frame names completed twice, so its second list
// decodes into the first one's array, as encoding/json reuses it.
func FuzzIndexListMatchesInts(f *testing.F) {
	for _, seed := range []string{
		`[0,1,2,46655]`, `null`, `[]`, " [ 1 ,\t-0 ,null]\n", `[null,null,5]`,
		`[9223372036854775807,-9223372036854775808]`, `[9223372036854775808]`, `[-9223372036854775809]`,
		`[1.0]`, `[1e2]`, `[-1E+2]`, `[01]`, `[-]`, `["1"]`, `[true]`, `[[1]]`, `[{}]`, `{}`, `"1"`, `1`,
		`[1,]`, `[1 2]`, `[,1]`, `[nul]`, `[nullx]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got dse.IndexList
		var want []int
		sameInts(t, "bare", data, json.Unmarshal(data, &got), json.Unmarshal(data, &want), got, want)
		if !json.Valid(data) {
			// Inside a document, bytes that are not one JSON value could
			// close the field and open others; bare, both decodes failed.
			return
		}

		req := append(append([]byte(`{"model":{"app":"tmm"},"space":{"per":2},"indices":`), data...), '}')
		var gotReq SweepRequest
		var wantReq struct {
			Indices []int `json:"indices"`
		}
		errGot, errWant := json.Unmarshal(req, &gotReq), json.Unmarshal(req, &wantReq)
		sameInts(t, "request indices", req, errGot, errWant, gotReq.Indices, wantReq.Indices)

		frame := []byte(`{"type":"result","report":{"total":3,"completed":[7,8,9],"completed":` +
			string(data) + `,"pending":` + string(data) + `,"retries":0}}`)
		var gotFrame subSweepFrame
		var wantFrame struct {
			Report struct {
				Completed []int `json:"completed"`
				Pending   []int `json:"pending"`
			} `json:"report"`
		}
		errGot, errWant = json.Unmarshal(frame, &gotFrame), json.Unmarshal(frame, &wantFrame)
		sameInts(t, "frame completed", frame, errGot, errWant, gotFrame.Report.Completed, wantFrame.Report.Completed)
		sameInts(t, "frame pending", frame, errGot, errWant, gotFrame.Report.Pending, wantFrame.Report.Pending)
	})
}

// sameInts fails t unless both decodes of doc failed, or both succeeded
// with the same list (nil and empty told apart).
func sameInts(t *testing.T, label string, doc []byte, errGot, errWant error, got dse.IndexList, want []int) {
	t.Helper()
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%s: decoding %q: IndexList error %v, []int error %v", label, doc, errGot, errWant)
	}
	if errGot != nil {
		return
	}
	if (got == nil) != (want == nil) || fmt.Sprint([]int(got)) != fmt.Sprint(want) {
		t.Fatalf("%s: decoding %q: IndexList %v (nil %v), []int %v (nil %v)", label, doc, got, got == nil, want, want == nil)
	}
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

// sameFloatList fails t unless got and want are both nil or hold the
// same bits.
func sameFloatList(t *testing.T, label string, got, want []jsonFloat) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: %d values (nil %v), want %d (nil %v)", label, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("%s: value[%d] = %x, want %x", label, i, math.Float64bits(float64(got[i])), math.Float64bits(float64(want[i])))
		}
	}
}

// FuzzValueListMatchesElementwise holds valueList to the per-element
// []jsonFloat path it replaces. Read as JSON, the input must fail to
// decode into a valueList exactly when it fails into []jsonFloat (bare,
// and as a sweep job payload's values), and otherwise give the same
// bits. Read as little-endian float64 bit patterns (NaN payloads, ±Inf
// and −0 included), it must encode byte for byte as []jsonFloat does,
// bare and inside a payload, and decode back to the same bits.
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
		var got valueList
		var want []jsonFloat
		errGot, errWant := json.Unmarshal(data, &got), json.Unmarshal(data, &want)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("decoding %q: valueList error %v, []jsonFloat error %v", data, errGot, errWant)
		}
		if errGot == nil {
			sameFloatList(t, "decoded", got, want)
		}
		doc := append(append([]byte(`{"best_index":0,"values":`), data...), '}')
		var gotRes SweepJobResult
		var wantRes legacySweepJobResult
		errGot, errWant = json.Unmarshal(doc, &gotRes), json.Unmarshal(doc, &wantRes)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("decoding payload %q: valueList error %v, []jsonFloat error %v", doc, errGot, errWant)
		}
		if errGot == nil {
			sameFloatList(t, "decoded payload", gotRes.Values, wantRes.Values)
		}

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
		var back SweepJobResult
		var backRef legacySweepJobResult
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("payload %s does not decode: %v", enc, err)
		}
		if err := json.Unmarshal(ref, &backRef); err != nil {
			t.Fatal(err)
		}
		sameFloatList(t, "round trip", back.Values, backRef.Values)
	})
}
