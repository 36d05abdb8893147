package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// BatchEvaluator is the batched form of robust.Evaluator: one call
// evaluates a whole plane of points, writing out[i] for points[i].
// Implementations must treat infeasible points as values (+Inf), return
// an error only for faults that invalidate the whole batch, and must be
// bit-identical to their scalar EvaluateCtx — the batchpar analyzer
// enforces that every implementation also carries the scalar method, and
// the differential tests in dse enforce the bit-identity.
//
// EvaluateStream detects this interface and sizes its chunks for it:
// many points per chunk, with all of a chunk's misses in one kernel call
// — the single biggest win on the evaluation hot path (see DESIGN.md
// §12). Do evaluates a one-point chunk the same way.
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error
}

// BatchFunc is Func with a batched kernel: the way ad-hoc fingerprinted
// objectives (the APS grid scan, the optimizer's probes) join the
// batched path. The embedded Func keeps the scalar contract.
type BatchFunc struct {
	Func
	// B evaluates all points, writing out[i] for points[i]. It must
	// compute exactly what F computes.
	B func(ctx context.Context, points [][]float64, out []float64) error
}

// EvaluateBatch implements BatchEvaluator.
func (f BatchFunc) EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error {
	return f.B(ctx, points, out)
}

// EvaluateBatch runs every point through the engine pipeline — memo
// cache, in-flight dedup, panic guard, retry, gate — writing out[i] for
// points[i]. Values follow the usual convention (+Inf feasible penalty,
// NaN on error); the returned error is ctx.Err() after cancellation or
// the first per-point fault otherwise.
func (e *Engine) EvaluateBatch(ctx context.Context, ev robust.Evaluator, points [][]float64, out []float64) error {
	if len(out) != len(points) {
		return fmt.Errorf("engine: EvaluateBatch out length %d != points length %d", len(out), len(points))
	}
	var firstErr error
	err := e.EvaluateStream(ctx, ev, points, func(i int, o Outcome) {
		out[i] = o.Value
		if o.Err != nil && firstErr == nil {
			firstErr = o.Err
		}
	})
	if err != nil {
		return err
	}
	return firstErr
}

// chunkSize picks the batched dispatch granularity: enough chunks to
// load-balance the pool (~4 per worker), chunks big enough to amortize
// the per-chunk lock and gate traffic, and capped so one chunk's memo
// probes stay cache-resident.
func chunkSize(n, workers int) int {
	return min(max((n+4*workers-1)/(4*workers), 16), 512, n)
}

// computeChunk computes a chunk's misses, pts[i] for every i in miss,
// writing outs[i]: one guarded, retried call (see guarded) under one
// engine.eval span. Evaluations and failures are counted per point,
// panics and retries per attempt, and engine_eval_seconds takes one
// observation per raw evaluation (the amortized per-point latency), so
// its count tracks the evaluations counter.
func (e *Engine) computeChunk(ctx context.Context, ev robust.Evaluator, pts [][]float64, miss []int, outs []Outcome) {
	// The copy keeps pts, which is Do's on-stack array, from escaping
	// into the evaluator call.
	batch := make([][]float64, len(miss))
	for j, i := range miss {
		batch[j] = pts[i]
	}
	vals := make([]float64, len(miss))
	ctx, sp := e.tracer.Start(ctx, "engine.eval")
	e.obs.inflight.Add(1)
	start := time.Now() //lint:allow detguard wall-clock pair feeds the latency histogram only, never the evaluated values
	attempts, err := e.retry.Do(ctx, e.rng, func(ctx context.Context) error {
		e.obs.evaluations.Add(uint64(len(batch)))
		err2 := guarded(ctx, ev, batch, vals)
		var pe *robust.PanicError
		if errors.As(err2, &pe) {
			e.obs.panics.Add(1)
		}
		return err2
	})
	elapsed := time.Since(start) //lint:allow detguard elapsed feeds the latency histogram only, never the evaluated values
	evals := uint64(len(batch)) * uint64(attempts)
	if evals > 0 {
		e.obs.evalSeconds.ObserveN(elapsed.Seconds()/float64(evals), evals)
	}
	if attempts > 1 {
		e.obs.retries.Add(uint64(attempts - 1))
	}
	if err != nil && !isContextErr(err) {
		e.obs.failures.Add(uint64(len(batch)))
	}
	e.obs.inflight.Add(-1)
	if sp != nil {
		sp.Annotate(obs.I("points", int64(len(batch))))
		sp.Annotate(obs.I("attempts", int64(attempts)))
		if err != nil {
			sp.Annotate(obs.S("error", err.Error()))
		}
		sp.Finish()
	}
	for j, i := range miss {
		outs[i] = Outcome{Value: vals[j], Attempts: attempts, Err: err}
		if err != nil {
			outs[i].Value = math.NaN()
		}
	}
}

// guarded evaluates pts into vals in one call, EvaluateBatch for a
// BatchEvaluator and EvaluateCtx for a plain evaluator, whose chunks are
// always one point (EvaluateStream sizes them so, and Do passes one). A
// panicking evaluator becomes a *robust.PanicError instead of tearing
// down the stream.
func guarded(ctx context.Context, ev robust.Evaluator, pts [][]float64, vals []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &robust.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if be, ok := ev.(BatchEvaluator); ok {
		return be.EvaluateBatch(ctx, pts, vals)
	}
	vals[0], err = ev.EvaluateCtx(ctx, pts[0])
	return err
}
