package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/aps"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/server"
)

// workload is one benchmark traffic mix.
type workload struct {
	name  string
	peers int // servers in the stack; 2 forms a loopback cluster
	run   func(ph *phase) error
}

var workloads = map[string]workload{
	"serve-mixed":   {name: "serve-mixed", peers: 1, run: runServeMixed},
	"sweep-cold":    {name: "sweep-cold", peers: 1, run: runSweepCold},
	"aps-sim":       {name: "aps-sim", peers: 1, run: runAPSSim},
	"cluster-sweep": {name: "cluster-sweep", peers: 2, run: runClusterSweep},
}

func workloadNames() string { return "serve-mixed|sweep-cold|aps-sim|cluster-sweep" }

// catalog resolves request model specs for the oracles exactly as the
// servers resolve them.
var catalog = server.DefaultCatalog()

var bgCtx = context.Background()

// loop is the closed loop of one client: step(i) for i = 0, 1, ... until
// the measured time is up (at least once), each request sent only after
// the previous one completed.
func (ph *phase) loop(step func(i int)) {
	ph.begin()
	deadline := time.Now().Add(time.Duration(ph.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		step(i)
	}
	ph.end()
}

// send issues one closed-loop request, timed from its send time.
func (ph *phase) send(c *call, timed bool, decode decoder) {
	ph.st.do(ph.ctx, ph.client, c, timed)
	ph.record(c, c.sent, timed, decode)
}

// freshModel is request i's model of app, with the sequential fraction
// scaled by a seeded factor in [1, 1.01): every request has a new model
// fingerprint, so nothing it computes can come from the cache. The
// perturbation is small so that every seed asks for about the same work:
// the optimum, and so the simulated designs, barely move.
func freshModel(seed uint64, stream uint64, i int, app string) server.ModelSpec {
	r := newRand(mix(seed, stream, uint64(i+1)))
	base := appProfiles[app]().Fseq
	return server.ModelSpec{App: app, Overrides: map[string]float64{"fseq": base * (1 + 0.01*r.Float64())}}
}

// appProfiles are the catalog applications' default profiles.
var appProfiles = map[string]func() core.App{
	"tmm":          core.TMMApp,
	"stencil":      core.StencilApp,
	"fft":          core.FFTApp,
	"fluidanimate": core.FluidanimateApp,
}

// --- sweep-cold -------------------------------------------------------

// runSweepCold sends back-to-back sweeps of never-seen models: every
// point is a cache miss and an LRU insert, with the HTTP edge a
// negligible share. Untimed sweeps fill the cache first, so every timed
// insert also evicts.
func runSweepCold(ph *phase) error {
	o := newOracle()
	sweep := func(i int, timed bool) {
		spec := freshModel(ph.cfg.seed, 0xc01d, i, catalogApps[(i%4+4)%4])
		c := &call{path: "/v1/sweep", body: mustJSON(server.SweepRequest{Model: spec, Space: server.SpaceSpec{Per: sweepPer}})}
		ph.send(c, timed, o.bestDecoder(spec))
	}
	size := pow(sweepPer, 6)
	for i := -1; i >= -(engine.DefaultCacheSize+size-1)/size; i-- {
		sweep(i, false)
	}
	ph.loop(func(i int) { sweep(i, true) })
	return nil
}

// --- cluster-sweep ----------------------------------------------------

// runClusterSweep sends warm sweeps through the coordinator of a
// two-peer cluster: the owners answer from their caches, so the time is
// the peer hop. One untimed cold pass fills the caches and must be
// bit-identical to a single-node sweep. A single model keeps every timed
// sweep the same work: two models split differently between the peers,
// and the median of two interleaved costs jumps between them.
func runClusterSweep(ph *phase) error {
	o := newOracle()
	spec := server.ModelSpec{App: "tmm"}
	c := &call{path: "/v1/sweep", body: mustJSON(server.SweepRequest{Model: spec, Space: server.SpaceSpec{Per: sweepPer}, IncludeValues: true})}
	ph.send(c, false, o.valuesDecoder(spec))
	body := mustJSON(server.SweepRequest{Model: spec, Space: server.SpaceSpec{Per: sweepPer}})
	fallback0 := sumCounter(ph.st, "cluster_fallback_points_total")
	ph.loop(func(int) {
		ph.send(&call{path: "/v1/sweep", body: body}, true, o.bestDecoder(spec))
	})
	// A fallback means a peer exchange failed and the coordinator computed
	// the shard itself: correct values, but not the workload's peer hop.
	if n := sumCounter(ph.st, "cluster_fallback_points_total") - fallback0; n > 0 {
		ph.fail(fmt.Errorf("cluster-sweep: %v points fell back to local compute", n))
	}
	return nil
}

// --- aps-sim ----------------------------------------------------------

// runAPSSim runs the paper's APS flow server-side: the analytic optimum,
// then the simulated issue×ROB slice around it, for fluidanimate (the
// paper's DSE validation application; the apps differ in cost, and the
// median of interleaved costs jumps between them). Every run has a
// fresh model and simulator seed, so the optimizer's probes and the
// simulations are all cold. The untimed first run must match an
// in-process aps.RunCtx; the timed ones must name a design in the space.
func runAPSSim(ph *phase) error {
	run := func(i int, timed bool) {
		r := server.APSRequest{
			Model:     freshModel(ph.cfg.seed, 0xa95, i, "fluidanimate"),
			Evaluator: server.EvaluatorSpec{Kind: "sim", TotalRefs: ph.cfg.apsRefs, Seed: 1 + mix(ph.cfg.seed, 0x51, uint64(i+1))%(1<<31)},
			Space:     server.SpaceSpec{Per: apsPer},
		}
		ph.send(&call{path: "/v1/aps", body: mustJSON(r)}, timed, func(body []byte) (int, func() error, error) {
			var got server.APSResponse
			if err := json.Unmarshal(body, &got); err != nil {
				return 0, nil, fmt.Errorf("aps response: %w", err)
			}
			if timed {
				ph.simulations += got.Simulations
			}
			check := func() error {
				if got.BestIndex < 0 || got.BestIndex >= got.SpaceSize {
					return fmt.Errorf("aps: best index %d outside space of %d", got.BestIndex, got.SpaceSize)
				}
				return nil
			}
			if !timed {
				check = func() error { return checkAPS(got, r) }
			}
			return got.AnalyticPoints + got.Simulations, check, nil
		})
	}
	run(-1, false)
	ph.loop(func(i int) { run(i, true) })
	return nil
}

// checkAPS compares a served APS run with aps.RunCtx on the same inputs.
func checkAPS(got server.APSResponse, r server.APSRequest) error {
	m, err := catalog.Resolve(r.Model)
	if err != nil {
		return err
	}
	space, err := catalog.Space(m, r.Space)
	if err != nil {
		return err
	}
	ev, err := catalog.Evaluator(m, r.Evaluator)
	if err != nil {
		return err
	}
	want, err := aps.RunCtx(bgCtx, m, space, ev, aps.Options{})
	if err != nil {
		return err
	}
	d := want.Analytic.Design
	same := got.Analytic.N == d.N &&
		sameBits(float64(got.Analytic.CoreArea), d.CoreArea) &&
		sameBits(float64(got.Analytic.L1Area), d.L1Area) &&
		sameBits(float64(got.Analytic.L2Area), d.L2Area) &&
		got.Analytic.Method == want.Analytic.Method &&
		got.BestIndex == want.BestIdx &&
		got.BestValue != nil && sameBits(float64(*got.BestValue), want.BestValue) &&
		fmt.Sprint(got.Snapped) == fmt.Sprint(want.Snapped)
	if !same {
		return fmt.Errorf("aps %s: served design N=%d best=%d, in-process N=%d best=%d",
			r.Model.App, got.Analytic.N, got.BestIndex, d.N, want.BestIdx)
	}
	return nil
}

// --- oracle -----------------------------------------------------------

// oracle evaluates whole sweep spaces (sweepPer) in-process with the family
// evaluator. Best results are memoized per model; the values
// themselves are not, or a long sweep-cold run would hold them all.
type oracle struct {
	mu    sync.Mutex
	bests map[string]oracleBest
}

type oracleBest struct {
	idx int
	val float64
}

func newOracle() *oracle { return &oracle{bests: make(map[string]oracleBest)} }

// values evaluates every point of the spec's sweep space.
func (o *oracle) values(spec server.ModelSpec) ([]float64, error) {
	m, err := catalog.ResolveModel(spec)
	if err != nil {
		return nil, err
	}
	space, err := dse.SpaceFor(m, sweepPer)
	if err != nil {
		return nil, err
	}
	points := make([][]float64, space.Size())
	for i := range points {
		points[i] = space.Point(i)
	}
	vals := make([]float64, len(points))
	if err := dse.NewFamilyEvaluator(m).EvaluateBatch(bgCtx, points, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// best is the argmin of the spec's sweep space.
func (o *oracle) best(spec server.ModelSpec) (oracleBest, error) {
	key := string(mustJSON(spec))
	o.mu.Lock()
	b, ok := o.bests[key]
	o.mu.Unlock()
	if ok {
		return b, nil
	}
	vals, err := o.values(spec)
	if err != nil {
		return b, err
	}
	b.idx, b.val = dse.Best(vals)
	o.mu.Lock()
	o.bests[key] = b
	o.mu.Unlock()
	return b, nil
}

// bestDecoder keeps a sweep's best index and value, to be compared with
// the argmin of the in-process values.
func (o *oracle) bestDecoder(spec server.ModelSpec) decoder {
	return func(body []byte) (int, func() error, error) {
		res, err := sweepResult(body)
		if err != nil {
			return 0, nil, err
		}
		if res.BestValue == nil {
			return 0, nil, fmt.Errorf("sweep %s: no best value", spec.App)
		}
		gotIdx, gotVal := res.BestIndex, float64(*res.BestValue)
		return res.Report.Total, func() error {
			b, err := o.best(spec)
			if err != nil {
				return err
			}
			if gotIdx != b.idx || !sameBits(gotVal, b.val) {
				return fmt.Errorf("sweep %s: served best %d (%v), oracle best %d (%v)", mustJSON(spec), gotIdx, gotVal, b.idx, b.val)
			}
			return nil
		}, nil
	}
}

// valuesDecoder keeps every value of a sweep, each to be bit-identical
// to the in-process value.
func (o *oracle) valuesDecoder(spec server.ModelSpec) decoder {
	return func(body []byte) (int, func() error, error) {
		res, err := sweepResult(body)
		if err != nil {
			return 0, nil, err
		}
		got := make([]float64, len(res.Values))
		for i, v := range res.Values {
			got[i] = float64(v)
		}
		return res.Report.Total, func() error {
			want, err := o.values(spec)
			if err != nil {
				return err
			}
			if len(got) != len(want) {
				return fmt.Errorf("sweep %s: %d values, want %d", spec.App, len(got), len(want))
			}
			for i := range got {
				if !sameBits(got[i], want[i]) {
					return fmt.Errorf("sweep %s point %d: served %v, single-node %v", spec.App, i, got[i], want[i])
				}
			}
			return nil
		}, nil
	}
}

// --- seeded inputs ----------------------------------------------------

// mix derives an independent 64-bit stream value from the seed and a
// stream path (splitmix64 finalizer over each element).
func mix(seed uint64, path ...uint64) uint64 {
	x := seed
	for _, p := range path {
		x ^= p + 0x9e3779b97f4a7c15 + x<<6 + x>>2
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

func newRand(x uint64) *rand.Rand { return rand.New(rand.NewSource(int64(x))) }

func pow(b, e int) int {
	n := 1
	for i := 0; i < e; i++ {
		n *= b
	}
	return n
}
