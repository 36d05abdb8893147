package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
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
