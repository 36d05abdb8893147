package dse

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/model"
)

// SpaceFor converts a model family's declared design space into a sweep
// Space, subsampled to at most `per` values per dimension (per ≤ 0
// keeps the family's full default grids). For the c2bound family this is
// the §IV paper space; ReducedSpace is its range-checked shorthand.
func SpaceFor(m model.Model, per int) (Space, error) {
	ms := m.Space()
	grids, err := ms.Grids(per)
	if err != nil {
		return Space{}, fmt.Errorf("dse: %s: %w", m.Fingerprint(), err)
	}
	params := make([]Param, len(grids))
	for i, g := range grids {
		params[i] = Param{Name: ms.Params[i].Name, Values: g}
	}
	return NewSpace(params...)
}

// FamilyEvaluator scores configurations with any registered model
// family, the c2bound paper objective included: the scalar path uses
// the family's direct (uncompiled) evaluation, whole planes ride the
// engine's batched path through the compiled kernel (its TimeAtBatch
// when the kernel is a model.BatchKernel, a TimeAt loop otherwise), and
// the family contract makes the paths bit-identical. Use by pointer —
// the lazy compile state must not be copied.
type FamilyEvaluator struct {
	M model.Model

	fpOnce sync.Once
	fp     string

	compileOnce sync.Once
	kernel      model.Kernel
	compileErr  error
}

// NewFamilyEvaluator wraps a model for sweeping.
func NewFamilyEvaluator(m model.Model) *FamilyEvaluator {
	return &FamilyEvaluator{M: m}
}

// Fingerprint implements engine.Fingerprinter. It is the model's own
// family-qualified fingerprint ("model/<family>:…"), so the engine's
// memo and singleflight keys can never collide across families. The
// string is memoized — the engine probes it on every request, and the
// warm-hit path must stay allocation-free.
func (e *FamilyEvaluator) Fingerprint() string {
	e.fpOnce.Do(func() { e.fp = e.M.Fingerprint() })
	return e.fp
}

// compile resolves the kernel once; every path shares the outcome.
func (e *FamilyEvaluator) compile() (model.Kernel, error) {
	e.compileOnce.Do(func() {
		e.kernel, e.compileErr = e.M.Compile()
	})
	return e.kernel, e.compileErr
}

// Evaluate implements Evaluator: the family objective at the point,
// +Inf for infeasible points, NaN when the family cannot evaluate at
// all (compile failure without a direct path). The direct path is
// preferred so the scalar result never depends on compile state.
func (e *FamilyEvaluator) Evaluate(point []float64) float64 {
	if d, ok := e.M.(model.Direct); ok {
		t, _, feasible := d.DirectTimeWorkAt(point)
		if !feasible {
			return math.Inf(1)
		}
		return t
	}
	k, err := e.compile()
	if err != nil {
		return math.NaN()
	}
	//lint:allow enginepath FamilyEvaluator is the engine adapter itself; consumers reach this kernel call through Engine.EvaluateStream
	return k.TimeAt(point)
}

// EvaluateCtx implements CtxEvaluator.
func (e *FamilyEvaluator) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return math.NaN(), err
	}
	return e.Evaluate(point), nil
}

// EvaluateBatch implements engine.BatchEvaluator: the whole plane runs
// through the compiled kernel (constants folded once), bit-identical to
// per-point Evaluate by the family contract. It walks the plane in
// slices of at most 256 points, checking ctx before each: a slice goes
// to the kernel's TimeAtBatch when it has one (the c2bound kernel
// computes each design once per run of points sharing it), and to a
// TimeAt loop otherwise. A model the compiler rejects falls back to the
// scalar path so the two paths can never disagree.
func (e *FamilyEvaluator) EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error {
	k, err := e.compile()
	bk, _ := k.(model.BatchKernel)
	for lo := 0; lo < len(points); lo += 256 {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		hi := min(lo+256, len(points))
		pts, vals := points[lo:hi], out[lo:hi]
		switch {
		case err != nil:
			for i, p := range pts {
				vals[i] = e.Evaluate(p)
			}
		case bk != nil:
			//lint:allow enginepath FamilyEvaluator is the engine adapter itself; consumers reach this kernel call through Engine.EvaluateStream
			bk.TimeAtBatch(pts, vals)
		default:
			for i, p := range pts {
				//lint:allow enginepath FamilyEvaluator is the engine adapter itself; consumers reach this kernel call through Engine.EvaluateStream
				vals[i] = k.TimeAt(p)
			}
		}
	}
	return nil
}
