package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// FuzzDecodePeerEval holds the peer-eval response decoder to its
// contract on arbitrary bodies: it either fails, or fills exactly n
// outcomes that re-encode through the peer's encoder
// (PeerEvalResponse) to a body decoding to the same value bits,
// hit flags, attempts and errors. The seeds are the encoder's own
// bodies for both NaN payloads, −0, ±Inf, both ends of the subnormals
// and MaxFloat64, with a hit, two failures and a retried point among
// them; a failure with empty error text after 255 attempts; and two
// forgeries, a body one byte short and the older per-point NDJSON shape.
func FuzzDecodePeerEval(f *testing.F) {
	var outs []PeerOutcome
	for _, v := range []uint64{
		0x7ff8000000000001, 0xfff8000000000000, 1 << 63, 0x7ff0000000000000,
		0xfff0000000000000, 1, 0x000fffffffffffff, 0x7fefffffffffffff,
	} {
		outs = append(outs, PeerOutcome{Value: math.Float64frombits(v), Attempts: 1})
	}
	outs[1].CacheHit, outs[1].Attempts = true, 0
	outs[2].Attempts = 3
	outs[3] = PeerOutcome{Value: math.NaN(), Attempts: 2, Err: errors.New("boom")}
	outs[5].Err = errors.New("second failure")
	for _, o := range [][]PeerOutcome{outs, outs[:2], nil} {
		f.Add(encodeResponse(f, o), len(o))
	}
	f.Add([]byte(`{"points":1,"failed":[{"index":0,"error":""}]}`+"\n\x00\x00\x00\x00\x00\x00\xf8\x7f\xff"), 1)
	f.Add([]byte(forgedResponse(`{"points":2}`, 17)), 2)
	f.Add([]byte(`{"index":0,"bits":"3ff0000000000000"}`+"\n"+`{"done":true,"points":1,"errors":0}`+"\n"), 1)

	f.Fuzz(func(t *testing.T, body []byte, n int) {
		if n < 0 || n > 64 {
			return
		}
		outs := make([]PeerOutcome, n)
		if err := decodePeerEval(bytes.NewReader(body), outs); err != nil {
			return
		}
		wire := encodeResponse(t, outs)
		again := make([]PeerOutcome, n)
		if err := decodePeerEval(bytes.NewReader(wire), again); err != nil {
			t.Fatalf("re-encoded response does not decode: %v\n%q", err, wire)
		}
		for i, o := range outs {
			a := again[i]
			if math.Float64bits(o.Value) != math.Float64bits(a.Value) {
				t.Fatalf("outcome %d bits changed on re-encoding: %x → %x", i, math.Float64bits(o.Value), math.Float64bits(a.Value))
			}
			if o.CacheHit != a.CacheHit || o.Attempts != a.Attempts || (o.Err != nil) != (a.Err != nil) ||
				o.Err != nil && o.Err.Error() != a.Err.Error() {
				t.Fatalf("outcome %d changed on re-encoding: %+v → %+v", i, o, a)
			}
		}
	})
}

// FuzzLoadPeersFile holds the peers table to all-or-nothing on arbitrary
// file bytes: a table SetPeers rejects leaves PeerNames unchanged, one it
// accepts installs exactly its peers, and a table that loads re-marshals
// to a file that loads an equal Config.
func FuzzLoadPeersFile(f *testing.F) {
	for _, seed := range []string{
		`{"self":"a","vnodes":32,"peers":[{"name":"a","url":"http://127.0.0.1:9001"},{"name":"b","url":"http://127.0.0.1:9002"}]}`,
		`{"self":"a","peers":[{"name":"a","url":"http://h:1"},{"name":"d","url":"https://h:4/"}]}`,
		`{"self":"z","peers":[{"name":"z","url":"http://h:1"}]}`,
		`{"self":"a","peers":[{"name":"a","url":"http://h:1"},{"name":"a","url":"http://h:2"}]}`,
		`{"self":"a","peers":[{"name":"a","url":"ftp://h"}]}`,
		`{"self":"a","vnodes":-1,"peers":[{"name":"a","url":"http://h:1"}]}`,
		`{"self":"a","peers":[{"name":"a","url":"http://h:1","weight":3}]}`,
	} {
		f.Add([]byte(seed))
	}
	known := testConfig("a", "a", "b", "c")
	c, err := New(known, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := c.SetPeers(known); err != nil {
			t.Fatal(err)
		}
		before := c.PeerNames()
		path := filepath.Join(t.TempDir(), "peers.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg, err := LoadPeersFile(path)
		if err != nil {
			return
		}
		if err := c.SetPeers(cfg); err != nil {
			if got := c.PeerNames(); !reflect.DeepEqual(got, before) {
				t.Fatalf("rejected table (%v) changed the peers from %v to %v", err, before, got)
			}
		} else {
			want := []string{}
			for _, p := range cfg.Peers {
				if p.Name != cfg.Self {
					want = append(want, p.Name)
				}
			}
			sort.Strings(want)
			if got := c.PeerNames(); !reflect.DeepEqual(got, want) {
				t.Fatalf("accepted table installed peers %v, want %v", got, want)
			}
		}
		again, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("loaded table does not encode: %v", err)
		}
		if err := os.WriteFile(path, again, 0o644); err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadPeersFile(path)
		if err != nil {
			t.Fatalf("re-marshalled table %s does not load: %v", again, err)
		}
		if !reflect.DeepEqual(reloaded, cfg) {
			t.Fatalf("round trip changed the table:\n%+v\n%+v", cfg, reloaded)
		}
	})
}

// canonJSON is a header field as the encoder writes it back: compacted,
// and an absent field as null.
func canonJSON(t *testing.T, raw json.RawMessage) string {
	if len(raw) == 0 {
		return "null"
	}
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatalf("decoded field %q is not JSON: %v", raw, err)
	}
	return b.String()
}

// FuzzReadPeerEvalRequest holds the peer-eval request decoder to its
// contract on arbitrary bodies: it either fails, or decodes a request
// that, re-encoded the way EvalOnPeer sends one (the header
// re-marshalled, the points through requestBody), decodes again to the
// same model, evaluator and point bits. A successful decode allocates
// the point list (24 bytes a point, which the decoder accepts for what
// the header claims) plus an amount bounded by the bytes it read. The
// seeds are TestPeerEvalRequestRoundTrip's request, a one-point request
// with an evaluator and null coordinates' neighbours (−0, NaN payloads,
// ±Inf), and its forgeries.
func FuzzReadPeerEvalRequest(f *testing.F) {
	body := func(head string, points [][]float64) []byte {
		b, err := io.ReadAll(newRequestBody([]byte(head+"\n"), points))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	points := make([][]float64, 2*blockPoints+3)
	for i := range points {
		points[i] = []float64{float64(i), math.Copysign(0, -1), math.Inf(1), math.Float64frombits(0x7ff8000000000001 + uint64(i))}
	}
	f.Add(body(`{"model":{"app":"tmm"},"points":2051,"dims":4}`, points))
	f.Add(body(`{"model":{"app":"tmm","family":"gpu"},"evaluator":{"kind":"sim","total_refs":60000},"points":1,"dims":6}`,
		[][]float64{{math.Inf(-1), math.Float64frombits(1), math.MaxFloat64, math.Float64frombits(0xfff8000000000000), 16, 256}}))
	for _, forged := range []string{
		forgedResponse(`{"model":{},"points":0,"dims":1}`, 0),
		forgedResponse(`{"model":{},"points":131073,"dims":1}`, 8*131073),
		forgedResponse(`{"model":{},"points":1,"dims":65}`, 8*65),
		forgedResponse(`{"model":{},"points":2,"dims":3}`, 47),
		forgedResponse(`{"model":{},"points":2,"dims":3}`, 49),
		forgedResponse(`{"model":{},"points":2,"dims":3,"x":1}`, 48),
	} {
		f.Add([]byte(forged))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, err := ReadPeerEvalRequest(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err != nil {
			return
		}
		if limit := 24*uint64(len(req.Points)) + 4*uint64(len(data)) + 64<<10; after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("decoding %d bytes into %d points allocated %d bytes, want at most %d",
				len(data), len(req.Points), after.TotalAlloc-before.TotalAlloc, limit)
		}
		dims := len(req.Points[0])
		head, err := json.Marshal(requestHeader{Model: req.Model, Evaluator: req.Evaluator, Points: len(req.Points), Dims: dims})
		if err != nil {
			t.Fatalf("decoded request's header does not encode: %v", err)
		}
		again, err := ReadPeerEvalRequest(newRequestBody(append(head, '\n'), req.Points))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v\n%s", err, head)
		}
		if canonJSON(t, again.Model) != canonJSON(t, req.Model) || canonJSON(t, again.Evaluator) != canonJSON(t, req.Evaluator) {
			t.Fatalf("model/evaluator %s/%s became %s/%s on re-encoding", req.Model, req.Evaluator, again.Model, again.Evaluator)
		}
		if len(again.Points) != len(req.Points) {
			t.Fatalf("%d points became %d on re-encoding", len(req.Points), len(again.Points))
		}
		for i, p := range req.Points {
			if len(p) != dims || len(again.Points[i]) != dims {
				t.Fatalf("point %d has %d coordinates, re-decoded %d, want %d", i, len(p), len(again.Points[i]), dims)
			}
			for j, v := range p {
				if math.Float64bits(again.Points[i][j]) != math.Float64bits(v) {
					t.Fatalf("point %d coordinate %d bits changed on re-encoding: %x → %x", i, j, math.Float64bits(v), math.Float64bits(again.Points[i][j]))
				}
			}
		}
	})
}
