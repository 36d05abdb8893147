package aps

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
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
