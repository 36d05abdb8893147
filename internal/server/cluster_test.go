package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dse"
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
// fake peer whose peer-sweep result frames are forged: a completed index
// far outside the space, a completed index claimed more often than it
// was forwarded, a completed list out of order (each with 8 bytes of
// bits per forwarded index, so only the index list is wrong), frames
// claiming every forwarded point with no bits, with bits for the whole
// space, one value short or with a 7-byte partial value, and a frame in
// the older decimal shape, group-aligned values and no bits, as a peer
// on an older version sends it. Each must fail the exchange like a short
// peer-eval response: the group falls back to local compute and the
// sweep returns the single node's bits, never a panic or NaN.
func TestClusterSweepRejectsBadPeerFrames(t *testing.T) {
	req := SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 2}, IncludeValues: true}
	_, single := newTestServer(t, Options{})
	want := sweepOver(t, single.URL, req)
	size := len(want.Values)

	const (
		badIndex = "outside the forwarded group or more often than forwarded"
		badBytes = "value bytes for a group of"
		unsorted = "not sorted"
	)
	// forged claims completed for a group with n bytes of bits.
	forged := func(group, completed []int, n int) SweepResult {
		return SweepResult{
			Type:   "result",
			Report: dse.SweepReport{Total: len(group), Completed: completed},
			Bits:   make([]byte, n),
		}
	}
	forgeries := []struct {
		name   string
		reason string // in checkSubSweep's error for the forged frame
		forge  func(group []int) SweepResult
	}{
		{"index outside the space", badIndex, func(group []int) SweepResult {
			return forged(group, []int{1 << 20}, 8*len(group))
		}},
		{"index claimed more often than forwarded", badIndex, func(group []int) SweepResult {
			return forged(group, []int{group[0], group[0]}, 8*len(group))
		}},
		{"unsorted completed", unsorted, func(group []int) SweepResult {
			backwards := make([]int, len(group))
			for k, idx := range group {
				backwards[len(group)-1-k] = idx
			}
			return forged(group, backwards, 8*len(group))
		}},
		{"no values", badBytes, func(group []int) SweepResult {
			return forged(group, group, 0)
		}},
		{"whole-space values", badBytes, func(group []int) SweepResult {
			return forged(group, group, 8*size)
		}},
		{"one value short", badBytes, func(group []int) SweepResult {
			return forged(group, group, 8*(len(group)-1))
		}},
		{"7-byte partial value", badBytes, func(group []int) SweepResult {
			return forged(group, group, 8*len(group)-1)
		}},
		{"legacy decimal values", badBytes, func(group []int) SweepResult {
			res := SweepResult{Type: "result", Report: dse.SweepReport{Total: len(group), Completed: group}}
			res.Values = make(valueList, len(group))
			return res
		}},
	}
	var current atomic.Int32
	var lastGroup atomic.Pointer[[]int]
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sub SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&sub); err != nil || len(sub.Indices) == 0 {
			http.Error(w, "bad peer-sweep request", http.StatusBadRequest)
			return
		}
		group := []int(sub.Indices)
		lastGroup.Store(&group)
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = json.NewEncoder(w).Encode(forgeries[current.Load()].forge(group))
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
		got := sweepOver(t, "http://"+ln.Addr().String(), req)
		wantBitIdentical(t, f.name, want.Values, got.Values)
		if len(got.Report.Completed) != size || len(got.Report.Pending) != 0 {
			t.Fatalf("%s: %d/%d completed, %d pending", f.name, len(got.Report.Completed), size, len(got.Report.Pending))
		}
		if reg.Counter("cluster_fallback_points_total").Value() == fb0 {
			t.Fatalf("%s: the forged frame was merged; no point fell back to local compute", f.name)
		}
		group := *lastGroup.Load()
		frame := f.forge(group)
		if err := checkSubSweep(&frame, size, group); err == nil || !strings.Contains(err.Error(), f.reason) {
			t.Fatalf("%s: checkSubSweep = %v, want an error naming %q", f.name, err, f.reason)
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

// TestMergePartitionsReadsOnlyCompletedBits merges a local partition
// with a peer frame that forwards a repeated index, fails one index and
// leaves one pending, with -1e300 in the bits at both of those: the
// merge reads the bits only at completed indices (so the sweep's best
// cannot land on an index nobody completed), merges the sorted lists
// with the repeat kept, and reports the unsettled index pending.
func TestMergePartitionsReadsOnlyCompletedBits(t *testing.T) {
	const size = 8
	nan := math.NaN()
	local := subSweepOutcome{
		values: []float64{4, nan, 6, nan, nan, nan, nan, nan},
		report: dse.SweepReport{Completed: []int{0, 2}},
	}
	group := []int{5, 1, 5, 3, 7}
	values := []float64{nan, -1e300, nan, 2.5, nan, 1.5, nan, -1e300}
	remote := subSweepOutcome{
		bits:   groupBits(values, group),
		group:  group,
		report: dse.SweepReport{Completed: []int{3, 5, 5}, Failed: []dse.IndexFailure{{Index: 1, Attempts: 2, Err: "boom"}}},
	}
	indices := []int{0, 2, 5, 1, 5, 3, 7}
	merged, rep, err := mergePartitions([]subSweepOutcome{local, remote}, indices, size)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, nan, 6, 2.5, nan, 1.5, nan, nan}
	for i := range want {
		if math.Float64bits(merged[i]) != math.Float64bits(want[i]) {
			t.Fatalf("merged[%d] = %v, want %v (merged %v)", i, merged[i], want[i], merged)
		}
	}
	if got := fmt.Sprint(rep.Total, rep.Completed, rep.Failed, rep.Pending); got != "7 [0 2 3 5 5] [{1 2 boom}] [7]" {
		t.Fatalf("report total, completed, failed, pending = %s", got)
	}
}

// TestPeerSweepReturnsGroupValues POSTs a peer sub-sweep directly with a
// shuffled subset of a 729-point space: its result frame carries 8
// bytes of bits per forwarded index, in request order, each value
// bit-identical to the single node's at that index, no decimal values,
// and reports exactly that subset completed.
func TestPeerSweepReturnsGroupValues(t *testing.T) {
	space := SpaceSpec{Per: 3}
	_, single := newTestServer(t, Options{})
	want := sweepOver(t, single.URL, SweepRequest{Model: ModelSpec{App: "tmm"}, Space: space, IncludeValues: true})
	size := len(want.Values)
	indices := make([]int, 0, size/3)
	for k := 0; k < size/3; k++ {
		indices = append(indices, (k*37+11)%size) // 37 is prime to 3^6: distinct, unsorted
	}

	peers := startClusterPeers(t, 2, cluster.Options{}, Options{})
	resp := postJSON(t, &http.Client{}, peers[1].url+"/internal/v1/peer-sweep", SweepRequest{
		Model: ModelSpec{App: "tmm"}, Space: space, Indices: indices, IncludeValues: true,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("peer-sweep status %d: %s", resp.StatusCode, body)
	}
	var res SweepResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Bytes(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading peer-sweep stream: %v", err)
	}
	if res.Type != "result" || res.Error != nil {
		t.Fatalf("last frame type %q, error %+v; want a clean result", res.Type, res.Error)
	}
	if len(res.Bits) != 8*len(indices) || res.Values != nil {
		t.Fatalf("result carries %d bytes of bits and %d decimal values for %d forwarded indices",
			len(res.Bits), len(res.Values), len(indices))
	}
	for k, idx := range indices {
		if got, w := math.Float64bits(bitsAt(res.Bits, k)), math.Float64bits(float64(want.Values[idx])); got != w {
			t.Fatalf("bits[%d] (index %d) = %x, want the single node's %x", k, idx, got, w)
		}
	}
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)
	if fmt.Sprint(res.Report.Completed) != fmt.Sprint(sorted) {
		t.Fatalf("completed %v, want the forwarded indices %v", res.Report.Completed, sorted)
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
