package aps

import (
	"context"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
)

// ModelOptions tunes a family-generic grid optimization.
type ModelOptions struct {
	// Engine is the shared evaluation service; nil builds a private one.
	// Runs against a shared engine reuse every memoized point keyed by
	// the family-qualified fingerprint.
	Engine *engine.Engine
	// Per subsamples the family's default grids to at most this many
	// values per dimension (≤ 0: full grids).
	Per int
	// Sweep sets checkpoint/resume of the grid scan. Its Engine is
	// replaced by the run's engine.
	Sweep dse.SweepOptions
}

// ModelResult is the outcome of a family-generic grid optimization.
type ModelResult struct {
	Space     dse.Space
	BestIdx   int
	BestPoint []float64
	BestValue float64
	SpaceSize int
	// Report is the resilience accounting of the sweep.
	Report dse.SweepReport
	// Engine is the engine counter delta across this run.
	Engine engine.Stats
}

// RunModelCtx optimizes any registered model family over its declared
// design space. It is the family-generic sibling of RunCtx: the
// C²-Bound family keeps the full APS flow (analytic area solve plus
// simulated slice) because only it carries the analytic machinery;
// every family gets the engine-batched exhaustive grid scan this entry
// point runs. The whole grid rides the engine's batched path through the
// family's compiled kernel; a repeated run on a shared engine re-reads
// the scan from cache.
func RunModelCtx(ctx context.Context, m model.Model, opts ModelOptions) (ModelResult, error) {
	space, err := dse.SpaceFor(m, opts.Per)
	if err != nil {
		return ModelResult{}, err
	}

	tr := obs.TracerFrom(ctx)
	obs.MetricsFrom(ctx).Counter("aps_model_runs_total").Add(1)
	ctx, runSp := tr.Start(ctx, "aps.run-model", obs.I("space_size", int64(space.Size())))
	defer runSp.Finish()

	r := startRun(ctx, opts.Engine, opts.Sweep)
	return r.sweepBest(ctx, dse.NewFamilyEvaluator(m), space, nil, "model grid scan")
}
