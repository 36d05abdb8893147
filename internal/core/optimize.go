package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/chip"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/solve"
)

// Regime is the §III-C case split of the optimization problem.
type Regime int

const (
	// MinimizeTime is case II: g(N) < O(N), a finite core count minimizes
	// execution time T.
	MinimizeTime Regime = iota
	// MaximizeThroughput is case I: g(N) ≥ O(N), ∂L/∂N never vanishes so
	// the model maximizes W/T instead.
	MaximizeThroughput
)

func (r Regime) String() string {
	if r == MinimizeTime {
		return "minimize-T"
	}
	return "maximize-W/T"
}

// ClassifyRegime applies the paper's rule: throughput optimization when
// the problem size scales at least linearly with memory capacity.
func (m Model) ClassifyRegime() Regime {
	if m.App.growthOrder() >= 1-1e-9 {
		return MaximizeThroughput
	}
	return MinimizeTime
}

// Result is the solved design point.
type Result struct {
	Design chip.Design
	Eval   Eval
	Regime Regime
	// Method names the solver that produced the area split: always
	// "nelder-mead", the simplex search on the Eq. 12 constraint surface.
	// (The APS wire reports "grid" for families without this optimizer.)
	Method string
	// Evaluations counts objective evaluations spent in the whole solve;
	// it is the analytic-cost figure APS compares against simulation
	// counts.
	Evaluations int
}

// Options bound the optimization search.
type Options struct {
	MaxN       int     // largest core count considered (default: area-derived)
	MinPerCore float64 // smallest per-core area; sets the N upper bound (default 0.5 mm²)
	MinArea    float64 // lower bound for each area component (default 0.05 mm²)

	// Engine, when set, routes every objective probe (the Nelder-Mead
	// vertices) through the shared evaluation engine, so repeated probes
	// of one design are memoized and the optimizer shares a cache with
	// any sweep running on the same engine. Nil keeps direct evaluation.
	Engine *engine.Engine
}

func (o *Options) fill(c chip.Config) {
	if o.MinPerCore <= 0 {
		o.MinPerCore = 0.5
	}
	if o.MinArea <= 0 {
		o.MinArea = 0.05
	}
	if o.MaxN <= 0 {
		o.MaxN = int((c.TotalArea - c.FixedArea) / o.MinPerCore)
		if o.MaxN < 1 {
			o.MaxN = 1
		}
	}
}

// evalCounter wraps the model's time objective and counts evaluation
// requests. The model is compiled once per counter, so every Nelder-Mead
// vertex runs the specialized (bit-identical) kernel instead of
// re-deriving the model. When an engine is attached, probes are memoized
// under the model's fingerprint (the count still reflects requests, not
// raw evaluations — engine.Stats carries the raw figure).
type evalCounter struct {
	ctx    context.Context
	eng    *engine.Engine
	timeAt func(chip.Design) float64
	probe  engine.Func
	count  int
}

func newEvalCounter(ctx context.Context, m Model, eng *engine.Engine) *evalCounter {
	ec := &evalCounter{ctx: ctx, eng: eng, timeAt: m.TimeAt}
	if compiled, err := m.Compile(); err == nil {
		ec.timeAt = compiled.TimeAt
	}
	if eng != nil {
		timeAt := ec.timeAt
		ec.probe = engine.Func{
			FP: "core.TimeAt{" + m.Fingerprint() + "}",
			F: func(_ context.Context, p []float64) (float64, error) {
				return timeAt(chip.Design{N: int(p[3] + 0.5), CoreArea: p[0], L1Area: p[1], L2Area: p[2]}), nil
			},
		}
	}
	return ec
}

func (ec *evalCounter) time(d chip.Design) float64 {
	ec.count++
	if ec.eng == nil {
		return ec.timeAt(d)
	}
	v, err := ec.eng.Evaluate(ec.ctx, ec.probe, []float64{d.CoreArea, d.L1Area, d.L2Area, float64(d.N)})
	if err != nil {
		// Cancellation (or an isolated panic) surfaces as an unattractive
		// objective; OptimizeCtx's per-candidate ctx poll turns the
		// cancellation into the caller-visible error.
		return math.Inf(1)
	}
	return v
}

// OptimizeAreas finds the area split (A0, A1, A2) minimizing J_D for a
// fixed core count n, holding the area constraint of Eq. 12 tight. For
// fixed N minimizing T and maximizing W/T coincide (W depends only on N),
// so one routine serves both regimes. A Nelder-Mead simplex search runs
// on the constraint surface itself, so its optimum is the constrained
// optimum the paper's Lagrangian (Eq. 13) characterizes. It also returns
// the number of objective evaluations spent.
func (m Model) OptimizeAreas(n int, opts Options) (chip.Design, int, error) {
	//lint:allow ctxflow deliberate non-ctx convenience wrapper over the ctx-aware optimizer
	return m.optimizeAreas(context.Background(), n, opts)
}

// optimizeAreas is OptimizeAreas with the context threaded through to the
// engine-routed probes.
func (m Model) optimizeAreas(ctx context.Context, n int, opts Options) (chip.Design, int, error) {
	opts.fill(m.Chip)
	budget := (m.Chip.TotalArea - m.Chip.FixedArea) / float64(n)
	if budget < 3*opts.MinArea {
		return chip.Design{}, 0, fmt.Errorf("core: %d cores leave only %.3g mm² per core", n, budget)
	}
	ec := newEvalCounter(ctx, m, opts.Engine)

	// Simplex parameterization of the constrained subspace: two free
	// variables (u0, u1) map through softmax weights onto the fixed
	// per-core budget, guaranteeing positivity and a tight constraint.
	design := func(u []float64) chip.Design {
		e0 := math.Exp(u[0])
		e1 := math.Exp(u[1])
		sum := e0 + e1 + 1
		usable := budget - 3*opts.MinArea
		return chip.Design{
			N:        n,
			CoreArea: opts.MinArea + usable*e0/sum,
			L1Area:   opts.MinArea + usable*e1/sum,
			L2Area:   opts.MinArea + usable*1/sum,
		}
	}
	objU := func(u []float64) float64 { return ec.time(design(u)) }

	bestU, bestT := solve.NelderMead(objU, []float64{1, 0}, solve.NelderMeadOpts{MaxIter: 400, Tol: 1e-12})
	// A second start favouring caches guards against local minima.
	u2, t2 := solve.NelderMead(objU, []float64{-1, 1}, solve.NelderMeadOpts{MaxIter: 400, Tol: 1e-12})
	if t2 < bestT {
		bestU, bestT = u2, t2
	}
	if math.IsInf(bestT, 1) {
		return chip.Design{}, ec.count, fmt.Errorf("core: no feasible split for N=%d", n)
	}
	return design(bestU), ec.count, nil
}

// Optimize solves the full C²-Bound problem: scan the core count (coarse
// geometric sweep followed by local integer refinement), optimize the area
// split at each N, and select by the regime rule of §III-C — minimum T
// when g(N) < O(N), maximum W/T when g(N) ≥ O(N).
func (m Model) Optimize(opts Options) (Result, error) {
	//lint:allow ctxflow deliberate non-ctx convenience wrapper over OptimizeCtx
	return m.OptimizeCtx(context.Background(), opts)
}

// OptimizeCtx is Optimize with cancellation: the context is polled
// between core-count candidates, so a deadline set by the CLI's --timeout
// flag (or an APS-level cancellation) stops the scan promptly.
func (m Model) OptimizeCtx(ctx context.Context, opts Options) (Result, error) {
	if err := m.App.Validate(); err != nil {
		return Result{}, err
	}
	opts.fill(m.Chip)
	regime := m.ClassifyRegime()

	ctx, optSp := obs.TracerFrom(ctx).Start(ctx, "core.optimize",
		obs.S("app", m.App.Name), obs.S("regime", regime.String()), obs.I("max_n", int64(opts.MaxN)))
	defer optSp.Finish()

	type cand struct {
		d chip.Design
		e Eval
	}
	better := func(a, b cand) bool { // is a better than b?
		if regime == MinimizeTime {
			return a.e.Time < b.e.Time
		}
		return a.e.Throughput > b.e.Throughput
	}
	var best *cand
	evals := 0
	tryN := func(n int) {
		if n < 1 || n > opts.MaxN {
			return
		}
		d, cnt, err := m.optimizeAreas(ctx, n, opts)
		evals += cnt
		if err != nil {
			return
		}
		e, err := m.Evaluate(d)
		if err != nil {
			return
		}
		c := cand{d: d, e: e}
		if best == nil || better(c, *best) {
			best = &c
		}
	}

	// Coarse sweep: all small N, then geometric spacing.
	seen := map[int]bool{}
	sweep := []int{}
	for n := 1; n <= 16 && n <= opts.MaxN; n++ {
		sweep = append(sweep, n)
		seen[n] = true
	}
	for f := 20.0; f <= float64(opts.MaxN); f *= 1.25 {
		n := int(f)
		if !seen[n] {
			sweep = append(sweep, n)
			seen[n] = true
		}
	}
	if !seen[opts.MaxN] {
		sweep = append(sweep, opts.MaxN)
	}
	for _, n := range sweep {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("core: optimize interrupted: %w", err)
		}
		tryN(n)
	}
	if best == nil {
		return Result{}, fmt.Errorf("core: no feasible design up to N=%d", opts.MaxN)
	}
	// Local integer refinement around the best coarse N.
	for radius := best.d.N / 4; radius >= 1; radius = radius / 2 {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("core: optimize interrupted: %w", err)
		}
		n0 := best.d.N
		for _, n := range []int{n0 - radius, n0 + radius} {
			if !seen[n] {
				seen[n] = true
				tryN(n)
			}
		}
		if radius == 1 {
			break
		}
	}
	optSp.Annotate(obs.I("n", int64(best.d.N)), obs.I("evaluations", int64(evals)))
	return Result{
		Design:      best.d,
		Eval:        best.e,
		Regime:      regime,
		Method:      "nelder-mead",
		Evaluations: evals,
	}, nil
}
