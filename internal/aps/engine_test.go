package aps

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestWarmEngineReusesSweepResults is the acceptance criterion of the
// engine refactor: an APS run on an engine pre-warmed by a full
// ground-truth sweep of the same space must spend strictly fewer raw
// evaluations than a cold run, serve its simulated slice entirely from
// cache, and still report the bit-identical optimum.
func TestWarmEngineReusesSweepResults(t *testing.T) {
	m, space, _ := testSetup(t, 3)
	// The family evaluator implements CtxEvaluator and Fingerprinter,
	// so the sweep and the APS slice memoize under one key space.
	eval := dse.NewFamilyEvaluator(model.NewC2Bound(m))
	ctx := context.Background()
	opts := Options{Optimize: core.Options{MaxN: 64}}

	// Cold: fresh engine, nothing cached.
	opts.Engine = engine.New(engine.Options{})
	cold, err := RunCtx(ctx, m, space, eval, opts)
	if err != nil {
		t.Fatalf("cold RunCtx: %v", err)
	}
	// The grid snap memoizes within the run, but no slice point can be
	// served from cache on a fresh engine.
	if cold.Report.CacheHits != 0 {
		t.Fatalf("cold sweep hit the cache %d times", cold.Report.CacheHits)
	}
	if cold.Simulations != 9 {
		t.Fatalf("cold simulations = %d, want 3² = 9", cold.Simulations)
	}

	// Warm: fresh engine, full sweep first, then APS on the same engine.
	warmEng := engine.New(engine.Options{})
	all := make([]int, space.Size())
	for i := range all {
		all[i] = i
	}
	if _, _, err := dse.SweepCtx(ctx, eval, space, all, dse.SweepOptions{Engine: warmEng}); err != nil {
		t.Fatalf("priming sweep: %v", err)
	}
	opts.Engine = warmEng
	warm, err := RunCtx(ctx, m, space, eval, opts)
	if err != nil {
		t.Fatalf("warm RunCtx: %v", err)
	}

	// Strictly fewer raw evaluations: the slice is served from cache, the
	// analytic phases cost the same either way.
	if warm.Engine.Evaluations >= cold.Engine.Evaluations {
		t.Fatalf("warm run spent %d raw evaluations, cold spent %d",
			warm.Engine.Evaluations, cold.Engine.Evaluations)
	}
	if warm.Engine.CacheHits == 0 {
		t.Fatal("warm run recorded no cache hits")
	}
	if warm.Simulations != 0 {
		t.Fatalf("warm run claims %d fresh simulations, want 0", warm.Simulations)
	}
	// Bit-identical optimum: cache reuse must not perturb the result.
	if warm.BestIdx != cold.BestIdx {
		t.Fatalf("best index diverged: warm %d vs cold %d", warm.BestIdx, cold.BestIdx)
	}
	if math.Float64bits(warm.BestValue) != math.Float64bits(cold.BestValue) {
		t.Fatalf("best value diverged: warm %x vs cold %x", warm.BestValue, cold.BestValue)
	}
}

// TestOptimizerProbesBypassRunEngine checks the nil-Engine path: RunCtx
// builds a run-private engine that meters the grid snap and the slice,
// while the analytic optimizer's probes, keyed by a fingerprint no other
// flow shares, stay out of it.
func TestOptimizerProbesBypassRunEngine(t *testing.T) {
	m, space, _ := testSetup(t, 3)
	eval := dse.NewFamilyEvaluator(model.NewC2Bound(m))
	res, err := RunCtx(context.Background(), m, space, eval, Options{Optimize: core.Options{MaxN: 64}})
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if res.Engine.Requests == 0 || res.Engine.Evaluations == 0 {
		t.Fatalf("engine stats empty: %+v", res.Engine)
	}
	if res.Engine.Requests >= uint64(res.Analytic.Evaluations) {
		t.Fatalf("%d engine requests for %d optimizer probes: the probes went through the run's engine",
			res.Engine.Requests, res.Analytic.Evaluations)
	}
}

// noisyEvaluator is a plain fingerprinted evaluator (no batch kernel,
// so the engine calls EvaluateCtx per point) that runs noise once, on
// its first call.
type noisyEvaluator struct {
	inner *dse.FamilyEvaluator
	once  sync.Once
	noise func(ctx context.Context)
}

func (n *noisyEvaluator) EvaluateCtx(ctx context.Context, p []float64) (float64, error) {
	n.once.Do(func() { n.noise(ctx) })
	return n.inner.EvaluateCtx(ctx, p)
}

func (n *noisyEvaluator) Fingerprint() string { return n.inner.Fingerprint() }

// TestPrivateEngineCountsOnlyItsRun pins the isolation of the engine
// RunCtx builds when Options.Engine is nil: a second engine counting
// in the context's registry while the run is live must not show up in
// Result.Engine.
func TestPrivateEngineCountsOnlyItsRun(t *testing.T) {
	m, space, _ := testSetup(t, 3)
	fam := dse.NewFamilyEvaluator(model.NewC2Bound(m))
	all := make([][]float64, space.Size())
	for i := range all {
		all[i] = space.Point(i)
	}
	run := func(noisy bool) engine.Stats {
		reg := obs.NewRegistry()
		ev := &noisyEvaluator{inner: fam, noise: func(context.Context) {}}
		if noisy {
			// A cold and a warm pass over the whole space on an engine
			// built on the run's registry.
			ev.noise = func(ctx context.Context) {
				other := engine.New(engine.Options{Metrics: reg})
				out := make([]float64, len(all))
				for pass := 0; pass < 2; pass++ {
					if err := other.EvaluateBatch(ctx, fam, all, out); err != nil {
						t.Errorf("noise pass %d: %v", pass, err)
					}
				}
			}
		}
		ctx := obs.ContextWithMetrics(context.Background(), reg)
		res, err := RunCtx(ctx, m, space, ev, Options{Optimize: core.Options{MaxN: 64}})
		if err != nil {
			t.Fatalf("RunCtx (noisy=%v): %v", noisy, err)
		}
		if got := reg.Counter("engine_requests_total").Value(); noisy && got < uint64(2*len(all)) {
			t.Fatalf("registry saw %d engine requests, want the noise's %d at least", got, 2*len(all))
		}
		return res.Engine
	}
	quiet, noisy := run(false), run(true)
	for _, c := range []struct {
		name       string
		got, quiet uint64
	}{
		{"requests", noisy.Requests, quiet.Requests},
		{"evaluations", noisy.Evaluations, quiet.Evaluations},
		{"cache hits", noisy.CacheHits, quiet.CacheHits},
		{"cache misses", noisy.CacheMisses, quiet.CacheMisses},
		{"dedups", noisy.Dedups, quiet.Dedups},
	} {
		if c.got != c.quiet {
			t.Errorf("%s: %d with another engine's traffic in the registry, %d without", c.name, c.got, c.quiet)
		}
	}
}
