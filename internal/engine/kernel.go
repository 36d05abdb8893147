package engine

import (
	"context"
	"math"
)

// Kernel is the structural mirror of internal/model.Kernel: a compiled,
// allocation-free per-point objective. The engine cannot import
// internal/model (core already imports the engine), so any compiled
// kernel — a model family's or an ad-hoc one — plugs in through this
// shape via KernelEvaluator.
type Kernel interface {
	// TimeAt returns the objective at a point, +Inf for infeasible
	// points.
	TimeAt(point []float64) float64
	// TimeWorkAt returns time and work, ok=false for infeasible points.
	TimeWorkAt(point []float64) (t, w float64, ok bool)
}

// KernelEvaluator adapts a compiled Kernel to the engine's evaluator
// contracts: EvaluateBatch for the engine's chunked dispatch and the
// scalar EvaluateCtx for direct calls. Both call the same
// Kernel.TimeAt, so they are bit-identical by construction. FP must be
// the family-qualified model fingerprint — it is the memo/singleflight
// key that keeps two families from ever sharing cache entries.
type KernelEvaluator struct {
	// FP is the family-qualified fingerprint keying the memo cache.
	FP string
	// K is the compiled kernel.
	K Kernel
}

// Fingerprint implements Fingerprinter.
func (e KernelEvaluator) Fingerprint() string { return e.FP }

// EvaluateCtx implements robust.Evaluator. Infeasible points are +Inf
// values, never errors.
func (e KernelEvaluator) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return math.NaN(), err
	}
	return e.K.TimeAt(point), nil
}

// EvaluateBatch implements BatchEvaluator, checking for cancellation
// every 256 points so huge chunks stay responsive.
func (e KernelEvaluator) EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error {
	for i, p := range points {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		out[i] = e.K.TimeAt(p)
	}
	return nil
}
