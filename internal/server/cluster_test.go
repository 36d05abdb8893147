package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/robust"
)

// clusterPeer is one loopback cluster member: a full Server (private
// engine) joined to the shared ring, listening on a real TCP port so
// peers reach each other over HTTP and a "killed" peer's address can be
// re-bound to revive it.
type clusterPeer struct {
	name string
	url  string
	addr string
	srv  *Server
	cl   *cluster.Cluster
	reg  *obs.Registry
	hs   *http.Server
}

// kill closes the peer's listener and in-flight connections; the Server
// object stays alive so revive can re-bind the same address.
func (p *clusterPeer) kill() { _ = p.hs.Close() }

// revive re-binds the peer's original address with the same Server.
func (p *clusterPeer) revive(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", p.addr, err)
	}
	p.hs = &http.Server{Handler: p.srv}
	go func() { _ = p.hs.Serve(ln) }()
	t.Cleanup(p.kill)
}

// startClusterPeers boots an n-peer loopback cluster. Every peer gets
// its own engine, registry and ring view over the same membership, and
// is built from sopts with its cluster and registry filled in.
func startClusterPeers(t *testing.T, n int, copts cluster.Options, sopts Options) []*clusterPeer {
	t.Helper()
	lns := make([]net.Listener, n)
	var cfg cluster.Config
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		cfg.Peers = append(cfg.Peers, cluster.PeerConfig{
			Name: fmt.Sprintf("p%d", i),
			URL:  "http://" + ln.Addr().String(),
		})
	}
	peers := make([]*clusterPeer, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.Self = cfg.Peers[i].Name
		reg := obs.NewRegistry()
		o := copts
		o.Metrics = reg
		cl, err := cluster.New(c, o)
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		so := sopts
		so.Cluster, so.Metrics = cl, reg
		srv := New(so)
		p := &clusterPeer{
			name: c.Self,
			url:  cfg.Peers[i].URL,
			addr: lns[i].Addr().String(),
			srv:  srv,
			cl:   cl,
			reg:  reg,
			hs:   &http.Server{Handler: srv},
		}
		go func(ln net.Listener, hs *http.Server) { _ = hs.Serve(ln) }(lns[i], p.hs)
		t.Cleanup(p.kill)
		peers[i] = p
	}
	return peers
}

// sweepOver POSTs a sweep and returns its final result frame.
func sweepOver(t *testing.T, baseURL string, req SweepRequest) SweepResult {
	t.Helper()
	resp := postJSON(t, &http.Client{}, baseURL+"/v1/sweep", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var res SweepResult
	found := false
	for sc.Scan() {
		var frame struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Bytes(), err)
		}
		if frame.Type == "result" {
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatalf("result frame: %v", err)
			}
			found = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading sweep stream: %v", err)
	}
	if !found {
		t.Fatal("sweep stream ended without a result frame")
	}
	if res.Error != nil {
		t.Fatalf("sweep error: %+v", *res.Error)
	}
	return res
}

// wantBitIdentical compares two dense value slices bit for bit.
func wantBitIdentical(t *testing.T, label string, want, got []jsonFloat) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(float64(want[i])) != math.Float64bits(float64(got[i])) {
			t.Fatalf("%s: value[%d] = %x, want %x (bit divergence)",
				label, i, math.Float64bits(float64(got[i])), math.Float64bits(float64(want[i])))
		}
	}
}

// TestClusterSweepBitIdenticalToSingleNode is the tentpole acceptance
// check: a 3-peer loopback cluster sweeping the tmm and fft catalog
// models must produce exactly the single-node bits, and the work must
// actually have been partitioned over the ring.
func TestClusterSweepBitIdenticalToSingleNode(t *testing.T) {
	_, single := newTestServer(t, Options{})
	peers := startClusterPeers(t, 3, cluster.Options{}, Options{})

	for _, app := range []string{"tmm", "fft"} {
		req := SweepRequest{
			Model:         ModelSpec{App: app},
			Space:         SpaceSpec{Per: 4},
			IncludeValues: true,
			ProgressMS:    50,
		}
		want := sweepOver(t, single.URL, req)
		got := sweepOver(t, peers[0].url, req)
		wantBitIdentical(t, app, want.Values, got.Values)
		if len(got.Report.Completed) != got.Report.Total || len(got.Report.Pending) != 0 {
			t.Fatalf("%s: cluster sweep incomplete: %d/%d done, %d pending",
				app, len(got.Report.Completed), got.Report.Total, len(got.Report.Pending))
		}
		if got.BestIndex != want.BestIndex {
			t.Fatalf("%s: best index %d, want %d", app, got.BestIndex, want.BestIndex)
		}
	}

	// The coordinator must have shipped a remote share, not swept alone.
	if peers[0].reg.Counter("cluster_remote_points_total").Value() == 0 {
		t.Fatal("cluster sweep routed no points to remote peers")
	}
	if peers[0].reg.Counter("cluster_local_points_total").Value() == 0 {
		t.Fatal("cluster sweep kept no points local")
	}
	if peers[0].reg.Counter("cluster_fallback_points_total").Value() != 0 {
		t.Fatal("healthy cluster fell back to local compute")
	}
}

// TestClusterBatchRemoteCacheHits drives the peer-eval exchange: a batch
// through the coordinator lands each point in its ring owner's cache, so
// the same batch again is served warm by the remote peers.
func TestClusterBatchRemoteCacheHits(t *testing.T) {
	peers := startClusterPeers(t, 3, cluster.Options{}, Options{})
	req := BatchRequest{Model: ModelSpec{App: "tmm"}, Points: testPoints(t, 64)}

	run := func() (hits int) {
		resp := postJSON(t, &http.Client{}, peers[0].url+"/v1/evaluate:batch", req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		for sc.Scan() {
			var sum BatchSummary
			if err := json.Unmarshal(sc.Bytes(), &sum); err == nil && sum.Done {
				return sum.CacheHits
			}
		}
		t.Fatal("batch stream ended without a summary")
		return 0
	}
	if hits := run(); hits != 0 {
		t.Fatalf("cold batch reported %d cache hits", hits)
	}
	if hits := run(); hits != len(req.Points) {
		t.Fatalf("warm batch hit %d of %d points", hits, len(req.Points))
	}
	if peers[0].reg.Counter("cluster_remote_hits_total").Value() == 0 {
		t.Fatal("warm batch recorded no remote cache hits")
	}
}

// TestClusterWarmCapacityGrowsWithPeers checks that peers add cache
// capacity: with every peer's cache at 4/5 of a 4096-point tmm space, a
// lone peer cannot hold the sweep, so its warm pass hits at most its
// capacity, while two or three peers split the space into shards that
// fit and serve the whole warm pass from cache.
func TestClusterWarmCapacityGrowsWithPeers(t *testing.T) {
	const points, capacity = 4096, 4096 * 4 / 5
	req := SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 4}}
	for n := 1; n <= 3; n++ {
		peers := startClusterPeers(t, n, cluster.Options{}, Options{CacheSize: capacity})
		sweepOver(t, peers[0].url, req)
		warm := sweepOver(t, peers[0].url, req)
		if warm.Report.Total != points {
			t.Fatalf("%d peers: swept %d points, want %d", n, warm.Report.Total, points)
		}
		hits := warm.Report.CacheHits
		if n == 1 && hits > capacity {
			t.Errorf("1 peer: warm pass hit %d points, more than its %d-entry cache holds", hits, capacity)
		}
		if n > 1 && hits != points {
			t.Errorf("%d peers: warm pass hit %d of %d points, want all", n, hits, points)
		}
		if fb := peers[0].reg.Counter("cluster_fallback_points_total").Value(); fb != 0 {
			t.Errorf("%d peers: %d points fell back to local compute", n, fb)
		}
	}
}

// TestClusterSweepSurvivesPeerDeath is the fault-injection satellite:
// killing one peer mid-sweep must not change a single bit of the result
// (its share falls back to local compute), the victim's breaker opens,
// and once the peer returns at the same address the breaker readmits
// traffic and remote serving resumes.
func TestClusterSweepSurvivesPeerDeath(t *testing.T) {
	copts := cluster.Options{
		FailThreshold: 1,
		Cooldown:      150 * time.Millisecond,
		Retry:         robust.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond},
	}
	peers := startClusterPeers(t, 3, copts, Options{})
	_, single := newTestServer(t, Options{})

	// A simulated workload big enough that the kill lands mid-sweep.
	req := SweepRequest{
		Model:         ModelSpec{App: "fluidanimate"},
		Evaluator:     EvaluatorSpec{Kind: "sim", TotalRefs: 300},
		Space:         SpaceSpec{Per: 3},
		IncludeValues: true,
		ProgressMS:    20,
	}
	want := sweepOver(t, single.URL, req)

	victim := peers[2]
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(30 * time.Millisecond)
		victim.kill()
	}()
	got := sweepOver(t, peers[0].url, req)
	<-killed

	wantBitIdentical(t, "fluidanimate", want.Values, got.Values)
	if len(got.Report.Completed) != got.Report.Total || len(got.Report.Failed) != 0 {
		t.Fatalf("sweep with dead peer: %d/%d completed, %d failed",
			len(got.Report.Completed), got.Report.Total, len(got.Report.Failed))
	}

	// Drive the breaker open deterministically: a batch spanning the
	// space must route some points at the dead victim and fail over.
	batch := BatchRequest{Model: ModelSpec{App: "tmm"}, Points: testPoints(t, 64)}
	fb0 := peers[0].reg.Counter("cluster_fallback_points_total").Value()
	resp := postJSON(t, &http.Client{}, peers[0].url+"/v1/evaluate:batch", batch)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if open, err := peers[0].cl.BreakerOpen(victim.name); err != nil || !open {
		t.Fatalf("breaker open = %v (err %v), want open after failed exchange", open, err)
	}
	if fb := peers[0].reg.Counter("cluster_fallback_points_total").Value(); fb == fb0 {
		t.Fatal("dead peer's points were not recomputed locally")
	}

	// Revive the victim at its old address: after the cooldown the next
	// exchange is the half-open trial, closes the breaker, and remote
	// serving resumes — visible as remote cache hits once the victim has
	// warmed the batch's points.
	victim.revive(t)
	rh0 := peers[0].reg.Counter("cluster_remote_hits_total").Value()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := postJSON(t, &http.Client{}, peers[0].url+"/v1/evaluate:batch", batch)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		open, err := peers[0].cl.BreakerOpen(victim.name)
		if err != nil {
			t.Fatal(err)
		}
		if !open && peers[0].reg.Counter("cluster_remote_hits_total").Value() > rh0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revived peer not readmitted: breaker open=%v, remote hits %d→%d",
				open, rh0, peers[0].reg.Counter("cluster_remote_hits_total").Value())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterSweepRejectsBadPeerFrames points the coordinator at a
// fake peer that reads each peer-eval request and answers it with a
// forged response: a point count off by one, values one byte short,
// bytes after the payload, a failure index out of range, a repeated
// failure index, and the older per-point NDJSON shape, as a peer on an
// older version sends it. Each must fail the exchange: the group falls
// back to local compute and the sweep returns the single node's bits,
// never a panic or NaN.
func TestClusterSweepRejectsBadPeerFrames(t *testing.T) {
	req := SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 2}, IncludeValues: true}
	_, single := newTestServer(t, Options{})
	want := sweepOver(t, single.URL, req)
	size := len(want.Values)

	// payload is n points' values and attempts bytes, plus skew bytes.
	payload := func(n, skew int) string { return strings.Repeat("\x01", 9*n+skew) }
	forgeries := []struct {
		name  string
		forge func(n int) string
	}{
		{"point count one over", func(n int) string {
			return fmt.Sprintf(`{"points":%d}`, n+1) + "\n" + payload(n+1, 0)
		}},
		{"values one byte short", func(n int) string {
			return fmt.Sprintf(`{"points":%d}`, n) + "\n" + payload(n, -1)
		}},
		{"bytes after the payload", func(n int) string {
			return fmt.Sprintf(`{"points":%d}`, n) + "\n" + payload(n, 1)
		}},
		{"failure index out of range", func(n int) string {
			return fmt.Sprintf(`{"points":%d,"failed":[{"index":%d,"error":"x"}]}`, n, n) + "\n" + payload(n, 0)
		}},
		{"repeated failure index", func(n int) string {
			return fmt.Sprintf(`{"points":%d,"failed":[{"index":0,"error":"x"},{"index":0,"error":"x"}]}`, n) + "\n" + payload(n, 0)
		}},
		{"per-point NDJSON", func(n int) string {
			var b strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, `{"index":%d,"bits":"3ff0000000000000"}`+"\n", i)
			}
			return b.String() + fmt.Sprintf(`{"done":true,"points":%d,"errors":0}`, n) + "\n"
		}},
	}
	var current atomic.Int32
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in, err := cluster.ReadPeerEvalRequest(r.Body)
		if err != nil {
			http.Error(w, "bad peer-eval request", http.StatusBadRequest)
			return
		}
		_, _ = io.WriteString(w, forgeries[current.Load()].forge(len(in.Points)))
	}))
	t.Cleanup(fake.Close)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	reg := obs.NewRegistry()
	cl, err := cluster.New(cluster.Config{Self: "p0", Peers: []cluster.PeerConfig{
		{Name: "p0", URL: "http://" + ln.Addr().String()},
		{Name: "p1", URL: fake.URL},
	}}, cluster.Options{
		Metrics:       reg,
		FailThreshold: 100, // keep the breaker closed so every forgery is exchanged
		Retry:         robust.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	hs := &http.Server{Handler: New(Options{Cluster: cl, Metrics: reg})}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { _ = hs.Close() })

	for i, f := range forgeries {
		current.Store(int32(i))
		fb0 := reg.Counter("cluster_fallback_points_total").Value()
		errs0 := reg.Counter("cluster_peer_errors_total").Value()
		got := sweepOver(t, "http://"+ln.Addr().String(), req)
		wantBitIdentical(t, f.name, want.Values, got.Values)
		if len(got.Report.Completed) != size || len(got.Report.Pending) != 0 || len(got.Report.Failed) != 0 {
			t.Fatalf("%s: %d/%d completed, %d pending, %d failed", f.name, len(got.Report.Completed), size, len(got.Report.Pending), len(got.Report.Failed))
		}
		if reg.Counter("cluster_fallback_points_total").Value() == fb0 {
			t.Fatalf("%s: the forged response was read as data; no point fell back to local compute", f.name)
		}
		if reg.Counter("cluster_peer_errors_total").Value() == errs0 {
			t.Fatalf("%s: the forged response did not fail its exchange", f.name)
		}
	}
	if reg.Counter("cluster_remote_points_total").Value() == 0 {
		t.Fatal("no points were routed to the fake peer")
	}
}

// TestClusterSweepRepeatedIndices sweeps a request naming each of the
// indices 0–63 twice through a two-peer cluster. A peer's sweep
// completes a repeated index once per occurrence, and the frame rule
// lets an index be claimed as often as it was forwarded, so the result
// is the single node's (values, and completed, failed and pending
// lists) with no point falling back, and the peer's breaker stays
// closed over more requests than its failure threshold.
func TestClusterSweepRepeatedIndices(t *testing.T) {
	indices := make([]int, 0, 128)
	for i := 0; i < 128; i++ {
		indices = append(indices, i%64)
	}
	req := SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 3}, Indices: indices, IncludeValues: true}
	_, single := newTestServer(t, Options{})
	want := sweepOver(t, single.URL, req)
	if len(want.Report.Completed) != len(indices) {
		t.Fatalf("single node completed %d of %d occurrences", len(want.Report.Completed), len(indices))
	}

	peers := startClusterPeers(t, 2, cluster.Options{}, Options{})
	for run := 0; run < 3; run++ {
		got := sweepOver(t, peers[0].url, req)
		label := fmt.Sprintf("request %d", run)
		wantBitIdentical(t, label, want.Values, got.Values)
		if got.Report.Total != want.Report.Total {
			t.Fatalf("%s: total %d, want %d", label, got.Report.Total, want.Report.Total)
		}
		for _, l := range []struct {
			name      string
			got, want interface{}
		}{
			{"completed", got.Report.Completed, want.Report.Completed},
			{"failed", got.Report.Failed, want.Report.Failed},
			{"pending", got.Report.Pending, want.Report.Pending},
		} {
			if fmt.Sprint(l.got) != fmt.Sprint(l.want) {
				t.Fatalf("%s: %s %v, want the single node's %v", label, l.name, l.got, l.want)
			}
		}
		if fb := peers[0].reg.Counter("cluster_fallback_points_total").Value(); fb != 0 {
			t.Fatalf("%s: %d points fell back to local compute", label, fb)
		}
	}
	if peers[0].reg.Counter("cluster_remote_points_total").Value() == 0 {
		t.Fatal("no points were routed to the remote peer")
	}
	if open, err := peers[0].cl.BreakerOpen(peers[1].name); err != nil || open {
		t.Fatalf("breaker open = %v (err %v), want closed", open, err)
	}
}

// TestReadyzClusterFieldNames pins the peer-ring summary's wire shape:
// readyz carries a "cluster" object with stable field names (operators
// and the bench harness parse them), and standalone servers omit it.
func TestReadyzClusterFieldNames(t *testing.T) {
	peers := startClusterPeers(t, 2, cluster.Options{}, Options{})
	resp, err := http.Get(peers[0].url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]json.RawMessage
	decodeBody(t, resp, &payload)
	raw, ok := payload["cluster"]
	if !ok {
		t.Fatal("readyz omits the cluster summary on a clustered server")
	}
	var sum map[string]interface{}
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"self", "peers", "alive", "ejected"} {
		if _, ok := sum[field]; !ok {
			t.Errorf("cluster summary missing stable field %q (have %v)", field, sum)
		}
	}
	if sum["peers"].(float64) != 2 || sum["alive"].(float64) != 2 {
		t.Fatalf("summary %v, want peers=2 alive=2", sum)
	}

	// Standalone: no cluster key, and the peer endpoints do not exist.
	_, single := newTestServer(t, Options{})
	resp, err = http.Get(single.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var alone map[string]json.RawMessage
	decodeBody(t, resp, &alone)
	if _, ok := alone["cluster"]; ok {
		t.Fatal("standalone readyz reports a cluster summary")
	}
	resp = postJSON(t, single.Client(), single.URL+"/internal/v1/peer-eval", cluster.PeerEvalRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("standalone peer-eval status %d, want 404", resp.StatusCode)
	}
}

// TestClusterSweepChunksLargeGroups sweeps tmm per=9 (531,441 points)
// through a two-peer cluster. The remote peer owns more points than one
// exchange may carry, so its group travels in exchanges of at most
// cluster.MaxBatchPoints points, one after another: no point falls
// back, and the values are the single node's bits.
func TestClusterSweepChunksLargeGroups(t *testing.T) {
	req := SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 9}, IncludeValues: true}
	_, single := newTestServer(t, Options{})
	want := sweepOver(t, single.URL, req)
	peers := startClusterPeers(t, 2, cluster.Options{}, Options{})
	got := sweepOver(t, peers[0].url, req)
	wantBitIdentical(t, "tmm per=9", want.Values, got.Values)
	if len(got.Report.Completed) != got.Report.Total || len(got.Report.Failed) != 0 || len(got.Report.Pending) != 0 {
		t.Fatalf("%d/%d completed, %d failed, %d pending",
			len(got.Report.Completed), got.Report.Total, len(got.Report.Failed), len(got.Report.Pending))
	}
	remote := peers[0].reg.Counter("cluster_remote_points_total").Value()
	if remote <= cluster.MaxBatchPoints {
		t.Fatalf("%d remote points, want more than the %d one exchange carries", remote, cluster.MaxBatchPoints)
	}
	if fb := peers[0].reg.Counter("cluster_fallback_points_total").Value(); fb != 0 {
		t.Fatalf("%d points fell back to local compute", fb)
	}
	if n, min := peers[0].reg.Counter("cluster_peer_requests_total").Value(), (remote+cluster.MaxBatchPoints-1)/cluster.MaxBatchPoints; n != min {
		t.Fatalf("%d exchanges for %d remote points, want %d", n, remote, min)
	}
}

// hookedEvaluator runs hook instead of the wrapped evaluator at one
// point and forwards the wrapped evaluator's fingerprint, so the engine
// keys and the ring places every point as it does the unwrapped one's.
type hookedEvaluator struct {
	dse.CtxEvaluator
	at   []float64
	hook func(ctx context.Context, inner dse.CtxEvaluator, p []float64) (float64, error)
}

func (h hookedEvaluator) EvaluateCtx(ctx context.Context, p []float64) (float64, error) {
	if slices.Equal(p, h.at) {
		return h.hook(ctx, h.CtxEvaluator, p)
	}
	return h.CtxEvaluator.EvaluateCtx(ctx, p)
}

func (h hookedEvaluator) Fingerprint() string {
	return h.CtxEvaluator.(engine.Fingerprinter).Fingerprint()
}

// withHookAt installs hook at point in every evaluator this process's
// servers resolve, for the rest of the test.
func withHookAt(t *testing.T, point []float64, hook func(context.Context, dse.CtxEvaluator, []float64) (float64, error)) {
	t.Helper()
	prev := testWrapEvaluator
	testWrapEvaluator = func(ev dse.CtxEvaluator) dse.CtxEvaluator {
		return hookedEvaluator{CtxEvaluator: ev, at: point, hook: hook}
	}
	t.Cleanup(func() { testWrapEvaluator = prev })
}

// ownership resolves a sweep request's space on the coordinator p and
// splits its flat indices by whether p owns their points.
func ownership(t *testing.T, p *clusterPeer, req SweepRequest) (space dse.Space, local, remote []int) {
	t.Helper()
	sr, err := p.srv.sweepInputs(&req)
	if err != nil {
		t.Fatal(err)
	}
	seed, ring := engine.KeySeed(sr.ev.(engine.Fingerprinter).Fingerprint()), p.cl.Ring()
	for i := 0; i < sr.space.Size(); i++ {
		if _, isLocal := ring.Owner(engine.KeyHash(seed, sr.space.Point(i))); isLocal {
			local = append(local, i)
		} else {
			remote = append(remote, i)
		}
	}
	if len(local) == 0 || len(remote) == 0 {
		t.Fatalf("%d local and %d remote points; the test needs both", len(local), len(remote))
	}
	return sr.space, local, remote
}

// TestClusterSweepReportsRemoteFailure sweeps through a two-peer
// cluster with one remote-owned point that always fails on its owner:
// the coordinator reports the single node's failure (index, attempts
// and error) and completed list, with no fallback.
func TestClusterSweepReportsRemoteFailure(t *testing.T) {
	peers := startClusterPeers(t, 2, cluster.Options{}, Options{})
	_, single := newTestServer(t, Options{})
	req := SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 3}, IncludeValues: true}
	space, _, remote := ownership(t, peers[0], req)
	withHookAt(t, space.Point(remote[0]), func(context.Context, dse.CtxEvaluator, []float64) (float64, error) {
		return math.NaN(), errors.New("test: this point always fails")
	})

	want := sweepOver(t, single.URL, req)
	if len(want.Report.Failed) != 1 || want.Report.Failed[0].Index != remote[0] || want.Report.Failed[0].Attempts < 2 {
		t.Fatalf("single node failed %+v, want index %d after retries", want.Report.Failed, remote[0])
	}
	got := sweepOver(t, peers[0].url, req)
	wantBitIdentical(t, "values", want.Values, got.Values)
	for _, l := range []struct {
		name      string
		got, want interface{}
	}{
		{"failed", got.Report.Failed, want.Report.Failed},
		{"completed", got.Report.Completed, want.Report.Completed},
		{"retries", got.Report.Retries, want.Report.Retries},
	} {
		if fmt.Sprint(l.got) != fmt.Sprint(l.want) {
			t.Fatalf("%s %v, want the single node's %v", l.name, l.got, l.want)
		}
	}
	if fb := peers[0].reg.Counter("cluster_fallback_points_total").Value(); fb != 0 {
		t.Fatalf("%d points fell back to local compute", fb)
	}
}

// TestClusterSweepCheckpointResume cuts a checkpointed sweep through a
// two-peer cluster short while one remote-owned point blocks on its
// owner: the checkpoint holds only indices the coordinator completed,
// all of its own share, and the resumed sweep restores them and ends
// with the single node's values and completed list.
func TestClusterSweepCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	peers := startClusterPeers(t, 2, cluster.Options{}, Options{CheckpointDir: dir})
	_, single := newTestServer(t, Options{})
	req := SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 3}, IncludeValues: true}
	want := sweepOver(t, single.URL, req)
	space, local, remote := ownership(t, peers[0], req)

	var gated atomic.Bool
	gated.Store(true)
	blocked := make(chan struct{}, 1)
	withHookAt(t, space.Point(remote[0]), func(ctx context.Context, inner dse.CtxEvaluator, p []float64) (float64, error) {
		if !gated.Load() {
			return inner.EvaluateCtx(ctx, p)
		}
		select {
		case blocked <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return math.NaN(), ctx.Err()
	})

	req.Checkpoint, req.Resume, req.ProgressMS = "cut.ck", true, 5
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, peers[0].url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	// Cut once the coordinator has evaluated its whole share and the
	// remote exchange is held up at the blocked point.
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p SweepProgress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("frame %q: %v", sc.Bytes(), err)
		}
		if p.Type != "progress" {
			t.Fatalf("sweep ended before the cut: %s", sc.Bytes())
		}
		if p.Evaluated >= int64(len(local)) {
			break
		}
	}
	<-blocked
	time.Sleep(50 * time.Millisecond) // the last local outcomes reach the report
	cancel()
	resp.Body.Close()

	path := filepath.Join(dir, "cut.ck")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		unlock, err := peers[0].srv.lockCheckpoint(path)
		if err == nil {
			unlock()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the cut sweep still holds its checkpoint: %v", err)
		}
	}
	ck, err := dse.LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("cut sweep left no checkpoint: %v", err)
	}
	isLocal := make(map[int]bool, len(local))
	for _, idx := range local {
		isLocal[idx] = true
	}
	if len(ck.Indices) == 0 {
		t.Fatal("the cut sweep checkpointed no completed index")
	}
	for _, idx := range ck.Indices {
		if !isLocal[idx] {
			t.Fatalf("checkpoint holds index %d, which the blocked remote exchange never returned", idx)
		}
	}

	gated.Store(false)
	got := sweepOver(t, peers[0].url, req)
	if got.Report.Resumed != len(ck.Indices) {
		t.Fatalf("resumed %d indices, want the checkpoint's %d", got.Report.Resumed, len(ck.Indices))
	}
	wantBitIdentical(t, "resumed", want.Values, got.Values)
	if fmt.Sprint(got.Report.Completed) != fmt.Sprint(want.Report.Completed) || len(got.Report.Pending) != 0 {
		t.Fatalf("resumed sweep completed %d (pending %d), want the single node's %d",
			len(got.Report.Completed), len(got.Report.Pending), len(want.Report.Completed))
	}
}

// batchLines POSTs a batch and returns its result lines by index.
func batchLines(t *testing.T, url string, req BatchRequest) []BatchResult {
	t.Helper()
	resp := postJSON(t, &http.Client{}, url, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	lines := make([]BatchResult, len(req.Points))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var line struct {
			BatchResult
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("batch line %q: %v", sc.Bytes(), err)
		}
		if !line.Done {
			lines[line.Index] = line.BatchResult
		}
	}
	return lines
}

// TestClusterBatchOwnerDeadlineFallsBack routes a batch through a
// two-peer cluster whose owner's request deadline (100 ms) expires while
// one of its points takes 300 ms. The owner answers the cut-short
// exchange with an error rather than part of a response, so the
// coordinator computes the group itself: every value is the single
// node's and no point reports an error.
func TestClusterBatchOwnerDeadlineFallsBack(t *testing.T) {
	peers := startClusterPeers(t, 2, cluster.Options{}, Options{Timeout: 100 * time.Millisecond})
	_, single := newTestServer(t, Options{})
	sweep := SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 3}}
	space, _, remote := ownership(t, peers[0], sweep)
	req := BatchRequest{Model: sweep.Model}
	for i := 0; i < space.Size(); i++ {
		req.Points = append(req.Points, space.Point(i))
	}
	withHookAt(t, space.Point(remote[0]), func(ctx context.Context, inner dse.CtxEvaluator, p []float64) (float64, error) {
		select {
		case <-time.After(300 * time.Millisecond):
			return inner.EvaluateCtx(ctx, p)
		case <-ctx.Done():
			return math.NaN(), ctx.Err()
		}
	})

	want := batchLines(t, single.URL+"/v1/evaluate:batch", req)
	got := batchLines(t, peers[0].url+"/v1/evaluate:batch?timeout_ms=10000", req)
	for i := range want {
		w, g := want[i], got[i]
		if g.Error != nil || g.Value == nil || w.Value == nil {
			t.Fatalf("point %d: got error %+v, value %v; single node value %v", i, g.Error, g.Value, w.Value)
		}
		if math.Float64bits(float64(*g.Value)) != math.Float64bits(float64(*w.Value)) {
			t.Fatalf("point %d: value %v, want the single node's %v", i, *g.Value, *w.Value)
		}
	}
	if peers[0].reg.Counter("cluster_fallback_points_total").Value() == 0 {
		t.Fatal("the owner's cut-short exchange did not fall back")
	}
}

// TestClusterSweepProgressCountsRemoteEvaluations sweeps a cold space
// through a two-peer cluster while one coordinator-owned point takes
// 500 ms: the remote share's exchange returns first, and the progress
// frames sent while the last local point runs count its owner's
// evaluations beside the coordinator's own.
func TestClusterSweepProgressCountsRemoteEvaluations(t *testing.T) {
	peers := startClusterPeers(t, 2, cluster.Options{}, Options{})
	req := SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 3}, ProgressMS: 5}
	space, local, remote := ownership(t, peers[0], req)
	withHookAt(t, space.Point(local[0]), func(ctx context.Context, inner dse.CtxEvaluator, p []float64) (float64, error) {
		select {
		case <-time.After(500 * time.Millisecond):
			return inner.EvaluateCtx(ctx, p)
		case <-ctx.Done():
			return math.NaN(), ctx.Err()
		}
	})

	resp := postJSON(t, &http.Client{}, peers[0].url+"/v1/sweep", req)
	defer resp.Body.Close()
	var most int64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var p SweepProgress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("frame %q: %v", sc.Bytes(), err)
		}
		if p.Type == "progress" {
			most = max(most, p.Evaluated)
		}
	}
	if want := int64(len(local) + len(remote)); most != want {
		t.Fatalf("progress counted at most %d evaluations, want all %d (%d local, %d remote)", most, want, len(local), len(remote))
	}
}
