package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzDecodePeerEval holds the peer-eval decoder to its contract on
// arbitrary response bodies: it either fails, or returns exactly n
// outcomes whose values, re-encoded with FormatBits and decoded again,
// keep their bits (and their cache and error flags).
func FuzzDecodePeerEval(f *testing.F) {
	for _, body := range []string{
		`{"index":0,"bits":"3ff0000000000000"}` + "\n" + `{"index":1,"bits":"4000000000000000","cache_hit":true}` + "\n" + `{"done":true,"points":2,"errors":0}` + "\n",
		`{"index":0,"bits":"3ff0000000000000"}` + "\n" + `{"index":1,"bits":"4000000000000000"}` + "\n",
		`{"index":0,"bits":"3ff0000000000000"}` + "\n" + `{"done":true}` + "\n",
		`{"index":0,"bits":"3ff0000000000000"}` + "\n" + `{"index":0,"bits":"3ff0000000000000"}` + "\n" + `{"done":true}` + "\n",
		`{"index":9,"bits":"3ff0000000000000"}` + "\n" + `{"done":true}` + "\n",
		`{"index":0,"error":"boom"}` + "\n" + `{"index":1,"bits":"7ff8000000000001"}` + "\n" + `{"done":true}` + "\n",
	} {
		f.Add([]byte(body), 2)
	}

	f.Fuzz(func(t *testing.T, body []byte, n int) {
		if n < 0 || n > 64 {
			return
		}
		outs, err := decodePeerEval(bytes.NewReader(body), n)
		if err != nil {
			return
		}
		if len(outs) != n {
			t.Fatalf("decoded %d outcomes, want %d", len(outs), n)
		}
		var wire bytes.Buffer
		enc := json.NewEncoder(&wire)
		for i, o := range outs {
			res := PeerEvalResult{Index: i, Bits: FormatBits(o.Value), CacheHit: o.CacheHit}
			if o.Err != nil {
				res = PeerEvalResult{Index: i, Error: "failed"}
			}
			if err := enc.Encode(res); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Encode(PeerEvalSummary{Done: true, Points: n}); err != nil {
			t.Fatal(err)
		}
		again, err := decodePeerEval(&wire, n)
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v\n%s", err, wire.Bytes())
		}
		for i, o := range outs {
			a := again[i]
			if (o.Err != nil) != (a.Err != nil) || o.CacheHit != a.CacheHit {
				t.Fatalf("outcome %d changed on re-encoding: %+v → %+v", i, o, a)
			}
			if math.Float64bits(o.Value) != math.Float64bits(a.Value) {
				t.Fatalf("outcome %d bits changed on re-encoding: %x → %x", i, math.Float64bits(o.Value), math.Float64bits(a.Value))
			}
		}
	})
}
