// Package aps implements the paper's Analysis-Plus-Simulation algorithm
// (Fig. 6): characterize the application, solve the C²-Bound analytic
// optimization for the fundamental parameters (A0, A1, A2, N), then
// simulate only the small remaining slice of the design space (issue
// width × ROB, optionally a ±radius neighborhood of the analytic point)
// to fix the microarchitectural parameters. It also hosts the ANN
// search baseline (Ïpek et al.) the paper compares simulation budgets
// against.
package aps

import (
	"context"
	"fmt"
	"math"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Metric selects the analytic objective used to pick the grid point —
// it must match what the simulator-side Evaluator measures, because both
// phases optimize the same quantity.
type Metric int

const (
	// MetricTime minimizes execution time of a fixed workload: the metric
	// of the paper's fluidanimate DSE validation, where the benchmark's
	// instruction count does not change with the configuration. This is
	// what dse.SimEvaluator measures.
	MetricTime Metric = iota
	// MetricTimePerWork minimizes T/W, i.e. maximizes throughput W/T with
	// the problem size scaled by g(N) — the paper's case-I objective. Use
	// it with an Evaluator that divides simulated time by scaled work.
	MetricTimePerWork
)

// Options tunes the APS run.
type Options struct {
	// Engine is the shared evaluation service. The grid snap and the
	// simulated slice route through it, so an APS run following a
	// ground-truth sweep on the same engine reuses every overlapping
	// simulation from the cache (Fig. 6's neighborhoods overlap prior
	// sweeps by construction). Nil builds a private engine for this run,
	// counting in a registry of its own rather than the context's, so
	// Result.Engine is this run's traffic alone. The analytic optimizer
	// evaluates directly: its probes are keyed by a fingerprint no other
	// flow shares, so memoizing them would only fill the cache.
	Engine *engine.Engine
	// Radius widens the simulated neighborhood around the analytic
	// solution in the A0/A1/A2/N dimensions; 0 reproduces the paper's
	// flow (only issue width and ROB are swept, 10×10 = 100 simulations).
	Radius int
	// Metric is the optimization target shared by the analytic and
	// simulated phases (default MetricTime).
	Metric Metric
	// Optimize forwards bounds to the analytic optimizer.
	Optimize core.Options
	// Sweep sets checkpoint/resume of the simulated slice. Its Engine is
	// replaced by the run's engine.
	Sweep dse.SweepOptions
}

// Result is the APS outcome.
type Result struct {
	Analytic  core.Result // the analytic solution before snapping
	Snapped   []int       // grid coordinates of the snapped analytic point
	BestIdx   int         // flat index of the best simulated configuration
	BestPoint []float64
	BestValue float64
	// Simulations is the number of fresh simulator invocations APS spent
	// — the quantity Fig. 12 compares (≈10² vs 613 vs 10⁶). Slice points
	// served from the engine's cache or restored from a checkpoint do not
	// count: they cost no simulation.
	Simulations int
	// AnalyticPoints counts analytic-model evaluations during the grid
	// optimization; these are microseconds each, not simulations.
	AnalyticPoints int
	SpaceSize      int
	// Report is the resilience accounting of the simulated phase:
	// completed/failed/pending indices, retries, cache hits and wall
	// time.
	Report dse.SweepReport
	// Engine is the engine's counter delta across this run: raw
	// evaluations, cache hits, retries, panics and evaluator wall time.
	// (On a shared engine, or one whose registry other engines count in,
	// the delta includes their concurrent traffic too.)
	Engine engine.Stats
}

// RunCtx executes APS for the model over the given space using eval as
// the simulator. The space must carry the six paper dimensions
// (dse.DimA0 … dse.DimROB). The context's cancellation or deadline
// propagates into the analytic grid scan and every simulator
// invocation, failing evaluations are retried per the engine's retry
// policy, and the simulated phase can checkpoint and resume.
func RunCtx(ctx context.Context, m core.Model, space dse.Space, eval dse.CtxEvaluator, opts Options) (Result, error) {
	dims := make(map[string]int, 6)
	for _, name := range []string{dse.DimA0, dse.DimA1, dse.DimA2, dse.DimN, dse.DimIssue, dse.DimROB} {
		d, err := space.DimIndex(name)
		if err != nil {
			return Result{}, err
		}
		dims[name] = d
	}

	tr := obs.TracerFrom(ctx)
	obs.MetricsFrom(ctx).Counter("aps_runs_total").Add(1)
	ctx, runSp := tr.Start(ctx, "aps.run",
		obs.I("space_size", int64(space.Size())), obs.I("radius", int64(opts.Radius)))
	defer runSp.Finish()

	// One engine serves the grid snap and the simulated slice.
	r := startRun(ctx, opts.Engine, opts.Sweep)

	// Step 1+2: analytic optimization (characterization is assumed done:
	// the model's App already carries measured parameters). The
	// unconstrained solve is kept for reporting; the snap onto the grid
	// re-optimizes the analytic objective over the representable
	// (A0, A1, A2, N) combinations — still pure analysis, zero
	// simulations — because the continuous optimum may sit between grid
	// values (especially its tight area constraint).
	optCtx, optSp := tr.Start(ctx, "aps.optimize")
	analytic, err := m.OptimizeCtx(optCtx, opts.Optimize)
	optSp.Finish()
	if err != nil {
		return Result{}, err
	}
	snapCtx, snapSp := tr.Start(ctx, "aps.grid-snap")
	center, analyticPoints, err := gridOptimum(snapCtx, m, r.eng, space, dims, opts.Metric)
	snapSp.Annotate(obs.I("analytic_points", int64(analyticPoints)))
	snapSp.Finish()
	if err != nil {
		return Result{}, err
	}

	// Step 4: simulate the remaining microarchitectural slice: the full
	// issue×ROB plane at the analytic point and, when Radius > 0, at each
	// neighbouring (A0, A1, A2, N) grid point as well.
	microDims := []int{dims[dse.DimIssue], dims[dse.DimROB]}
	fullRange := len(space.Params[microDims[0]].Values) + len(space.Params[microDims[1]].Values)
	areaCenters := [][]int{center}
	if opts.Radius > 0 {
		areaDims := []int{dims[dse.DimA0], dims[dse.DimA1], dims[dse.DimA2], dims[dse.DimN]}
		areaCenters = nil
		for _, idx := range space.Neighborhood(center, opts.Radius, areaDims) {
			areaCenters = append(areaCenters, space.Coords(idx))
		}
	}
	seen := map[int]bool{}
	var indices []int
	for _, c := range areaCenters {
		for _, idx := range space.Neighborhood(c, fullRange, microDims) {
			if !seen[idx] {
				seen[idx] = true
				indices = append(indices, idx)
			}
		}
	}
	sliceCtx, sliceSp := tr.Start(ctx, "aps.slice", obs.I("indices", int64(len(indices))))
	slice, err := r.sweepBest(sliceCtx, eval, space, indices, "simulated slice")
	sliceSp.Finish()
	rep := slice.Report
	return Result{
		Analytic:       analytic,
		Snapped:        center,
		BestIdx:        slice.BestIdx,
		BestPoint:      slice.BestPoint,
		BestValue:      slice.BestValue,
		Simulations:    len(rep.Completed) - rep.Resumed - rep.CacheHits + len(rep.Failed),
		AnalyticPoints: analyticPoints,
		SpaceSize:      slice.SpaceSize,
		Report:         rep,
		Engine:         slice.Engine,
	}, err
}

// runState is the scaffold RunCtx and RunModelCtx share: the engine a
// run evaluates on, its counters when the run started, and the run's
// sweep options.
type runState struct {
	eng    *engine.Engine
	stats0 engine.Stats
	sweep  dse.SweepOptions
}

// startRun picks the run's engine — the shared one, or a private one
// for this run on the engine.Options defaults that inherits ctx's
// tracer and counts in a registry of its own, so its Stats are this
// run's traffic alone — and sets the sweep to ride it.
func startRun(ctx context.Context, shared *engine.Engine, sweep dse.SweepOptions) runState {
	eng := shared
	if eng == nil {
		eng = engine.New(engine.Options{Tracer: obs.TracerFrom(ctx)})
	}
	sweep.Engine = eng
	return runState{eng: eng, stats0: eng.Stats(), sweep: sweep}
}

// sweepBest sweeps the listed flat indices of space (nil: all of them)
// with eval and reports the optimum, the resilience report and the
// engine counter delta since the run started. An interrupted sweep and
// a sweep without a feasible configuration are errors that still carry
// the partial result; what names the sweep in them.
func (r runState) sweepBest(ctx context.Context, eval dse.CtxEvaluator, space dse.Space, indices []int, what string) (ModelResult, error) {
	values, report, err := dse.SweepCtx(ctx, eval, space, indices, r.sweep)
	res := ModelResult{
		Space:     space,
		SpaceSize: space.Size(),
		Report:    report,
		Engine:    r.eng.Stats().Delta(r.stats0),
	}
	bestIdx, bestVal := dse.Best(values)
	res.BestIdx = bestIdx
	if bestIdx >= 0 {
		res.BestPoint = space.Point(bestIdx)
		res.BestValue = bestVal
	}
	if err != nil {
		return res, fmt.Errorf("aps: %s interrupted (%d/%d evaluated): %w",
			what, len(report.Completed), report.Total, err)
	}
	if bestIdx < 0 {
		return res, fmt.Errorf("aps: no feasible configuration in the %s", what)
	}
	return res, nil
}

// gridOptimum scans the representable (A0, A1, A2, N) grid combinations
// with the *analytic* objective (no simulation) and returns the best
// feasible coordinates, with the issue/ROB dimensions left at zero for
// the subsequent simulated slice. The whole grid is submitted as one
// flat plane on the engine's batched path under a metric-specific
// fingerprint (the batch kernel is the compiled model, bit-identical to
// the scalar probe, so a repeated APS run on a shared engine re-reads
// the whole scan from cache regardless of which path filled it).
// Infeasible grid points score +Inf (a cacheable value, excluded from
// the analytic-point count).
func gridOptimum(ctx context.Context, m core.Model, eng *engine.Engine, space dse.Space, dims map[string]int, metric Metric) ([]int, int, error) {
	dA0, dA1, dA2, dN := dims[dse.DimA0], dims[dse.DimA1], dims[dse.DimA2], dims[dse.DimN]
	scalar := func(_ context.Context, p []float64) (float64, error) {
		e, err := m.Evaluate(chip.Design{N: int(p[3] + 0.5), CoreArea: p[0], L1Area: p[1], L2Area: p[2]})
		if err != nil {
			return math.Inf(1), nil
		}
		if metric == MetricTimePerWork {
			return e.Time / e.Work, nil
		}
		return e.Time, nil
	}
	score := engine.BatchFunc{
		Func: engine.Func{
			FP: fmt.Sprintf("aps.gridScore{metric=%d %s}", metric, m.Fingerprint()),
			F:  scalar,
		},
		B: func(ctx context.Context, pts [][]float64, out []float64) error {
			compiled, err := m.Compile()
			if err != nil {
				// Invalid profile: keep the scalar semantics per point.
				for i, p := range pts {
					out[i], _ = scalar(ctx, p)
				}
				return nil
			}
			for i, p := range pts {
				if i&255 == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				t, w, ok := compiled.TimeWorkAt(chip.Design{N: int(p[3] + 0.5), CoreArea: p[0], L1Area: p[1], L2Area: p[2]})
				switch {
				case !ok:
					out[i] = math.Inf(1)
				case metric == MetricTimePerWork:
					out[i] = t / w
				default:
					out[i] = t
				}
			}
			return nil
		},
	}

	// Enumerate the (A0, A1, A2, N) combinations in the same nesting
	// order as the scalar scan (first-encountered wins score ties), as a
	// flat plane for one batched submission.
	nCombos := len(space.Params[dA0].Values) * len(space.Params[dA1].Values) *
		len(space.Params[dA2].Values) * len(space.Params[dN].Values)
	plane := make([][]float64, 0, nCombos)
	slab := make([]float64, 0, 4*nCombos)
	combos := make([][4]int, 0, nCombos)
	coords := make([]int, space.Dims())
	for i0, a0 := range space.Params[dA0].Values {
		for i1, a1 := range space.Params[dA1].Values {
			for i2, a2 := range space.Params[dA2].Values {
				for in, n := range space.Params[dN].Values {
					lo := len(slab)
					slab = append(slab, a0, a1, a2, n)
					plane = append(plane, slab[lo:len(slab):len(slab)])
					combos = append(combos, [4]int{i0, i1, i2, in})
				}
			}
		}
	}
	scores := make([]float64, len(plane))
	for i := range scores {
		scores[i] = math.NaN()
	}
	// Per-point faults are skipped (their score stays NaN), exactly like
	// the scalar scan's continue-on-error; only cancellation aborts.
	streamErr := eng.EvaluateStream(ctx, score, plane, func(i int, o engine.Outcome) {
		if o.Err == nil {
			scores[i] = o.Value
		}
	})
	if streamErr != nil {
		return nil, 0, fmt.Errorf("aps: analytic grid scan interrupted: %w", streamErr)
	}

	best := make([]int, space.Dims())
	found := false
	bestScore := math.Inf(1)
	points := 0
	for k, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 1) {
			continue
		}
		points++
		if s < bestScore {
			bestScore = s
			c := combos[k]
			for d := range coords {
				coords[d] = 0
			}
			coords[dA0], coords[dA1], coords[dA2], coords[dN] = c[0], c[1], c[2], c[3]
			copy(best, coords)
			found = true
		}
	}
	if !found {
		return nil, points, fmt.Errorf("aps: no feasible grid point for the analytic model")
	}
	return best, points, nil
}

// RelativeError compares an APS (or any) best value to the true optimum
// of a ground-truth sweep: (got − trueBest)/trueBest.
func RelativeError(got float64, truth []float64) (float64, error) {
	idx, trueBest := dse.Best(truth)
	if idx < 0 {
		return 0, fmt.Errorf("aps: ground truth has no finite entries")
	}
	if trueBest == 0 { //lint:allow floatguard exact zero optimum would make the relative error undefined
		return 0, fmt.Errorf("aps: degenerate ground-truth optimum 0")
	}
	return (got - trueBest) / trueBest, nil
}
