package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// newListener rebinds the host:port of a base URL (reviving a "dead"
// peer at its old address).
func newListener(baseURL string) (net.Listener, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, err
	}
	return net.Listen("tcp", u.Host)
}

func testConfig(self string, names ...string) Config {
	cfg := Config{Self: self}
	for _, n := range names {
		cfg.Peers = append(cfg.Peers, PeerConfig{Name: n, URL: "http://127.0.0.1:1/" + n})
	}
	return cfg
}

func TestRingDeterministicAcrossInputOrder(t *testing.T) {
	a := buildRing([]string{"a", "b", "c"}, 64)
	b := buildRing([]string{"c", "a", "b"}, 64)
	seed := engine.KeySeed("ring/det")
	for i := 0; i < 4096; i++ {
		key := engine.KeyHash(seed, []float64{float64(i)})
		if a.owner(key) != b.owner(key) {
			t.Fatalf("key %d owned by %q vs %q depending on input order", i, a.owner(key), b.owner(key))
		}
	}
}

// TestRingOwnerMatchesBinarySearch holds the bucketed lookup to its
// definition, the first vnode at or past the key found by binary search
// over the sorted positions, wrapping at the top: for rings of one to
// five peers with 1 to 4,096 vnodes, over hashed keys and every vnode
// position, its neighbours and both ends of the key space.
func TestRingOwnerMatchesBinarySearch(t *testing.T) {
	seed := engine.KeySeed("ring/index")
	for _, peers := range [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}, {"a", "b", "c", "d", "e"}} {
		for _, vnodes := range []int{1, 7, DefaultVirtualNodes, maxVirtualNodes} {
			r := buildRing(peers, vnodes)
			keys := []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64}
			for _, h := range r.hashes {
				keys = append(keys, h-1, h, h+1)
			}
			for i := 0; i < 4096; i++ {
				keys = append(keys, engine.KeyHash(seed, []float64{float64(i)}))
			}
			for _, key := range keys {
				i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= key })
				if i == len(r.hashes) {
					i = 0
				}
				if got, want := r.owner(key), r.owners[i]; got != want {
					t.Fatalf("%d peers × %d vnodes: key %#x owned by %q, want %q", len(peers), vnodes, key, got, want)
				}
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	// The acceptance bound: ≤15% per-peer shard imbalance with ≥64
	// virtual nodes over a realistic keyset (a catalog sweep's points).
	seed := engine.KeySeed("ring/balance")
	for _, peers := range [][]string{{"a", "b"}, {"a", "b", "c"}, {"a", "b", "c", "d", "e"}} {
		r := buildRing(peers, DefaultVirtualNodes)
		counts := make(map[string]int)
		total := 8192
		for i := 0; i < total; i++ {
			counts[r.owner(engine.KeyHash(seed, []float64{float64(i), float64(i % 7)}))]++
		}
		mean := float64(total) / float64(len(peers))
		for _, name := range peers {
			dev := math.Abs(float64(counts[name])-mean) / mean
			if dev > 0.15 {
				t.Errorf("%d peers: %q owns %d of %d keys (%.1f%% from even share, budget 15%%)",
					len(peers), name, counts[name], total, dev*100)
			}
		}
	}
}

func TestRingEjectionMovesOnlyEjectedShare(t *testing.T) {
	full := buildRing([]string{"a", "b", "c"}, DefaultVirtualNodes)
	without := buildRing([]string{"a", "c"}, DefaultVirtualNodes)
	moved, total := 0, 4096
	seed := engine.KeySeed("ring/eject")
	for i := 0; i < total; i++ {
		key := engine.KeyHash(seed, []float64{float64(i)})
		before, after := full.owner(key), without.owner(key)
		if before != after {
			moved++
			if before != "b" {
				t.Fatalf("key moved from surviving peer %q to %q", before, after)
			}
		}
	}
	// Roughly one third of the keys belonged to b; consistent hashing
	// must not reshuffle the rest.
	if frac := float64(moved) / float64(total); frac < 0.2 || frac > 0.5 {
		t.Fatalf("ejecting 1 of 3 peers moved %.1f%% of keys, want roughly a third", frac*100)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"empty", Config{Self: "a"}, "empty"},
		{"no-self", testConfig("", "a", "b"), "no self"},
		{"self-missing", testConfig("z", "a", "b"), "not in the membership"},
		{"dup", Config{Self: "a", Peers: []PeerConfig{
			{Name: "a", URL: "http://h:1"}, {Name: "a", URL: "http://h:2"}}}, "duplicate"},
		{"bad-url", Config{Self: "a", Peers: []PeerConfig{{Name: "a", URL: "ftp://h"}}}, "invalid URL"},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadPeersFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "peers.json")
	body := `{"self":"a","vnodes":32,"peers":[{"name":"a","url":"http://127.0.0.1:9001"},{"name":"b","url":"http://127.0.0.1:9002"}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadPeersFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Self != "a" || cfg.VirtualNodes != 32 || len(cfg.Peers) != 2 {
		t.Fatalf("parsed %+v", cfg)
	}
	if _, err := LoadPeersFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file: want error")
	}
}

// TestValidateBoundsVirtualNodes rejects a vnode count outside
// [0, maxVirtualNodes]: the ring holds that many entries per peer.
func TestValidateBoundsVirtualNodes(t *testing.T) {
	for _, v := range []int{-1, maxVirtualNodes + 1, 1280000} {
		cfg := testConfig("a", "a", "b")
		cfg.VirtualNodes = v
		if _, err := New(cfg, Options{}); err == nil || !strings.Contains(err.Error(), "vnodes") {
			t.Errorf("vnodes %d: error %v, want a vnodes error", v, err)
		}
	}
	cfg := testConfig("a", "a", "b")
	cfg.VirtualNodes = maxVirtualNodes
	if _, err := New(cfg, Options{}); err != nil {
		t.Fatalf("vnodes %d: %v", maxVirtualNodes, err)
	}
}

// TestLoadPeersFileRejectsUnknownKeys loads peers files with a
// misspelled or unknown key, or trailing bytes: each is an error, so
// no peer silently falls back to a default ring.
func TestLoadPeersFileRejectsUnknownKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peers.json")
	const peers = `"peers":[{"name":"a","url":"http://127.0.0.1:9001"},{"name":"b","url":"http://127.0.0.1:9002"}]`
	for _, body := range []string{
		`{"self":"a",` + peers + `,"peerz":[]}`,
		`{"self":"a","vnode":32,` + peers + `}`,
		`{"self":"a","peers":[{"name":"a","url":"http://127.0.0.1:9001","weight":3}]}`,
		`{"self":"a",` + peers + `}{"self":"b"}`,
		`{"self":"a",` + peers + `}]`,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if cfg, err := LoadPeersFile(path); err == nil {
			t.Errorf("%s: loaded %+v with a nil error", body, cfg)
		}
	}
}

func TestOwnerRoutesAndSetPeersPreservesState(t *testing.T) {
	c, err := New(testConfig("a", "a", "b", "c"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := engine.KeyHash(engine.KeySeed("cluster/route"), []float64{7})
	owner1, _ := c.Ring().Owner(key)

	// Trip b's breaker by hand, then reload membership with a new URL
	// for b: the breaker state must survive the swap.
	p := c.peer("b")
	p.recordFailure(time.Now(), 1, time.Minute)
	cfg := testConfig("a", "a", "b", "c")
	cfg.Peers[1].URL = "http://127.0.0.1:2/b"
	if err := c.SetPeers(cfg); err != nil {
		t.Fatal(err)
	}
	if open, _ := c.BreakerOpen("b"); !open {
		t.Fatal("breaker state lost across SetPeers")
	}
	if got := c.peer("b").baseURL(); got != "http://127.0.0.1:2/b" {
		t.Fatalf("URL not updated: %s", got)
	}
	owner2, _ := c.Ring().Owner(key)
	if owner1 != owner2 {
		t.Fatalf("same membership, owner moved %q → %q", owner1, owner2)
	}
	if err := c.SetPeers(testConfig("b", "a", "b", "c")); err == nil {
		t.Fatal("changing self at runtime: want error")
	}
	// Removing a peer changes ownership of (roughly) its share only. A
	// view taken before the change keeps its generation: a request
	// partitioned under it places every key by the same ring.
	before := c.Ring()
	seed := engine.KeySeed("cluster/route")
	var bKey uint64
	for i := 0; ; i++ {
		bKey = engine.KeyHash(seed, []float64{float64(i)})
		if name, _ := before.Owner(bKey); name == "b" {
			break
		}
	}
	if err := c.SetPeers(testConfig("a", "a", "c")); err != nil {
		t.Fatal(err)
	}
	if name, _ := c.Ring().Owner(bKey); name == "b" {
		t.Fatal("removed peer still owns keys")
	}
	if name, local := before.Owner(bKey); name != "b" || local {
		t.Fatalf("earlier view moved its key to %q (local %v); want b's old generation", name, local)
	}
}

func TestBreakerOpensAndHalfOpens(t *testing.T) {
	p := &peerState{name: "x", url: "http://h:1"}
	now := time.Now()
	if !p.allow(now) {
		t.Fatal("fresh breaker must admit")
	}
	p.recordFailure(now, 2, 50*time.Millisecond)
	if !p.allow(now) {
		t.Fatal("one failure below threshold must admit")
	}
	p.recordFailure(now, 2, 50*time.Millisecond)
	if p.allow(now) {
		t.Fatal("breaker at threshold must reject")
	}
	later := now.Add(60 * time.Millisecond)
	if !p.allow(later) {
		t.Fatal("cooled-down breaker must admit one half-open trial")
	}
	if p.allow(later) {
		t.Fatal("second concurrent half-open trial must be rejected")
	}
	p.recordSuccess()
	if !p.allow(later) {
		t.Fatal("successful trial must close the breaker")
	}
}

func TestProbeEjectsAndReadmits(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer up.Close()
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))

	cfg := Config{Self: "self", Peers: []PeerConfig{
		{Name: "self", URL: "http://127.0.0.1:1"},
		{Name: "up", URL: up.URL},
		{Name: "down", URL: down.URL},
	}}
	reg := obs.NewRegistry()
	c, err := New(cfg, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	down.Close()

	ctx := context.Background()
	c.ProbeOnce(ctx)
	if ej, _ := c.Ejected("down"); ej {
		t.Fatal("one failed probe must not eject (threshold 2)")
	}
	c.ProbeOnce(ctx)
	if ej, _ := c.Ejected("down"); !ej {
		t.Fatal("two failed probes must eject")
	}
	if ej, _ := c.Ejected("up"); ej {
		t.Fatal("healthy peer ejected")
	}
	sum := c.Summary()
	if sum.Peers != 3 || sum.Alive != 2 || sum.Ejected != 1 {
		t.Fatalf("summary %+v, want 3 peers / 2 alive / 1 ejected", sum)
	}
	// No key may resolve to the ejected peer.
	seed, ring := engine.KeySeed("probe"), c.Ring()
	for i := 0; i < 2048; i++ {
		if name, _ := ring.Owner(engine.KeyHash(seed, []float64{float64(i)})); name == "down" {
			t.Fatal("ejected peer still owns ring segments")
		}
	}
	if reg.Counter("cluster_ring_moves_total").Value() == 0 {
		t.Fatal("ejection moved no ring ownership")
	}

	// Revive "down" at the same address: one good probe readmits.
	revived := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	revived.Listener.Close()
	l, err := newListener(down.URL)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", down.URL, err)
	}
	revived.Listener = l
	revived.Start()
	defer revived.Close()
	c.ProbeOnce(ctx)
	if ej, _ := c.Ejected("down"); ej {
		t.Fatal("healthy probe must readmit")
	}
}

// encodeResponse is the body the peer's encoder writes for outs, set in
// reverse order.
func encodeResponse(tb testing.TB, outs []PeerOutcome) []byte {
	r := NewPeerEvalResponse(len(outs))
	for i := len(outs) - 1; i >= 0; i-- {
		r.Set(i, outs[i])
	}
	var b bytes.Buffer
	if _, err := r.WriteTo(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// forgedResponse is a peer-eval response body: the header line, then
// payload bytes.
func forgedResponse(head string, payload int) string {
	return head + "\n" + strings.Repeat("\x01", payload)
}

// TestDecodePeerEvalRejectsShortResponses decodes what the peer's
// encoder writes for two outcomes (a hit, and a failure after three
// attempts), then forgeries of it: a point count off by one either way,
// values one byte short, bytes after the payload, a failure index out
// of range or repeated, an unknown header field, and the older
// per-point NDJSON shape. Each forgery is an error, never outcomes.
func TestDecodePeerEvalRejectsShortResponses(t *testing.T) {
	body := encodeResponse(t, []PeerOutcome{
		{Value: 1.5, CacheHit: true},
		{Value: math.NaN(), Attempts: 3, Err: errors.New("boom")},
	})
	outs := make([]PeerOutcome, 2)
	if err := decodePeerEval(bytes.NewReader(body), outs); err != nil {
		t.Fatal(err)
	}
	if outs[0].Value != 1.5 || !outs[0].CacheHit || outs[0].Attempts != 0 || outs[0].Err != nil {
		t.Fatalf("outcome 0 decoded as %+v", outs[0])
	}
	if !math.IsNaN(outs[1].Value) || outs[1].CacheHit || outs[1].Attempts != 3 || outs[1].Err == nil || outs[1].Err.Error() != "boom" {
		t.Fatalf("outcome 1 decoded as %+v", outs[1])
	}
	cases := map[string]string{
		"count one over":   forgedResponse(`{"points":3}`, 27),
		"count one under":  forgedResponse(`{"points":1}`, 9),
		"values short":     forgedResponse(`{"points":2}`, 17),
		"trailing bytes":   forgedResponse(`{"points":2}`, 19),
		"failure range":    forgedResponse(`{"points":2,"failed":[{"index":2,"error":"x"}]}`, 18),
		"failure negative": forgedResponse(`{"points":2,"failed":[{"index":-1,"error":"x"}]}`, 18),
		"failure repeated": forgedResponse(`{"points":2,"failed":[{"index":0,"error":"x"},{"index":0,"error":"x"}]}`, 18),
		"unknown field":    forgedResponse(`{"points":2,"errors":0}`, 18),
		"no header":        strings.Repeat("\x01", 18),
		"ndjson": `{"index":0,"bits":"3ff0000000000000"}` + "\n" +
			`{"index":1,"bits":"4000000000000000","cache_hit":true}` + "\n" +
			`{"done":true,"points":2,"errors":0}` + "\n",
	}
	for name, body := range cases {
		if err := decodePeerEval(strings.NewReader(body), make([]PeerOutcome, 2)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestPeerEvalRequestRoundTrip streams a request body from points and
// decodes it as the owner does, bit for bit, and holds the owner's
// decoder to the header's claims: no points, too many points or
// coordinates, a payload one byte short, or bytes after it are errors.
func TestPeerEvalRequestRoundTrip(t *testing.T) {
	points := make([][]float64, 2*blockPoints+3)
	for i := range points {
		points[i] = []float64{float64(i), math.Copysign(0, -1), math.Inf(1), math.Float64frombits(0x7ff8000000000001 + uint64(i))}
	}
	head := []byte(`{"model":{"app":"tmm"},"points":2051,"dims":4}` + "\n")
	got, err := ReadPeerEvalRequest(newRequestBody(head, points))
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Model) != `{"app":"tmm"}` || got.Evaluator != nil || len(got.Points) != len(points) {
		t.Fatalf("decoded model %s, evaluator %s, %d points", got.Model, got.Evaluator, len(got.Points))
	}
	for i, p := range points {
		for j, v := range p {
			if math.Float64bits(got.Points[i][j]) != math.Float64bits(v) {
				t.Fatalf("point %d coordinate %d = %x, want %x", i, j, math.Float64bits(got.Points[i][j]), math.Float64bits(v))
			}
		}
	}
	for name, body := range map[string]string{
		"no points":     forgedResponse(`{"model":{},"points":0,"dims":1}`, 0),
		"too many":      forgedResponse(`{"model":{},"points":131073,"dims":1}`, 8*131073),
		"too many dims": forgedResponse(`{"model":{},"points":1,"dims":65}`, 8*65),
		"short":         forgedResponse(`{"model":{},"points":2,"dims":3}`, 47),
		"trailing":      forgedResponse(`{"model":{},"points":2,"dims":3}`, 49),
		"unknown field": forgedResponse(`{"model":{},"points":2,"dims":3,"x":1}`, 48),
	} {
		if _, err := ReadPeerEvalRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
