package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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
