package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/robust"
)

// CtxEvaluator is the resilient evaluator contract: context-aware and
// fallible. dse.SimEvaluator and dse.FamilyEvaluator implement it; plain
// Evaluators adapt through WithContext.
type CtxEvaluator = robust.Evaluator

// ctxAdapter lifts a plain Evaluator to CtxEvaluator, forwarding the
// inner evaluator's fingerprint (when it has one) so adapted evaluators
// still participate in engine memoization.
type ctxAdapter struct {
	inner Evaluator
}

func (a ctxAdapter) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return math.NaN(), err
	}
	//lint:allow enginepath the adapter IS the engine's entry bridge for plain evaluators
	return a.inner.Evaluate(point), nil
}

// Fingerprint implements engine.Fingerprinter when the wrapped evaluator
// does; otherwise it returns "" (and the engine treats the adapter as
// anonymous — metered but uncached).
func (a ctxAdapter) Fingerprint() string {
	if f, ok := a.inner.(engine.Fingerprinter); ok {
		return "dse.ctx{" + f.Fingerprint() + "}"
	}
	return ""
}

// WithContext adapts a plain Evaluator to the CtxEvaluator interface:
// cancellation is honoured between evaluations and the score is returned
// with a nil error. If the inner evaluator carries an engine fingerprint,
// the adapter forwards it so memoization still applies.
func WithContext(e Evaluator) CtxEvaluator {
	if f, ok := e.(engine.Fingerprinter); ok && f.Fingerprint() != "" {
		return ctxAdapter{inner: e}
	}
	return robust.EvaluatorFunc(func(ctx context.Context, point []float64) (float64, error) {
		if err := ctx.Err(); err != nil {
			return math.NaN(), err
		}
		//lint:allow enginepath the adapter IS the engine's entry bridge for plain evaluators
		return e.Evaluate(point), nil
	})
}

// Streamer runs a sweep's evaluations: *engine.Engine, or a router
// that sends some of the points to other processes. EvaluateStream
// must call yield at most once per point and never concurrently, as
// engine.Engine.EvaluateStream does.
type Streamer interface {
	EvaluateStream(ctx context.Context, ev CtxEvaluator, points [][]float64, yield func(i int, o engine.Outcome)) error
}

// SweepOptions tunes the resilient sweep.
type SweepOptions struct {
	// Engine runs every evaluation: an engine's worker bound and retry
	// policy apply, and results already memoized by earlier work on the
	// same engine are served from its cache. Nil runs the sweep on an
	// uncached engine with the engine.Options defaults.
	Engine Streamer
	// CheckpointPath enables periodic JSON checkpointing of completed
	// values to this file (written atomically via rename). Empty disables.
	CheckpointPath string
	// CheckpointEvery is the number of completed evaluations between
	// checkpoint writes (default 256). A final checkpoint is always
	// written when the sweep stops, including on cancellation.
	CheckpointEvery int
	// Resume loads CheckpointPath (when the file exists) before sweeping
	// and skips every index it already carries. The checkpoint must match
	// the space's signature.
	Resume bool
}

// IndexFailure records one design point whose evaluation kept failing
// after exhausting the retry budget.
type IndexFailure struct {
	Index    int    `json:"index"`
	Attempts int    `json:"attempts"`
	Err      string `json:"err"`
}

// SweepReport summarizes a resilient sweep: which indices completed,
// failed or were left pending (cancellation), how many retries were
// spent, and the wall time. Partial results always accompany the report —
// a crash or cancellation at 90% completion loses nothing.
type SweepReport struct {
	// Total is the number of indices the sweep was asked to evaluate.
	Total int `json:"total"`
	// Completed lists the successfully evaluated indices, sorted. It
	// includes indices restored from a resumed checkpoint, and lists an
	// index the sweep was asked for more than once as often as asked.
	Completed []int `json:"completed"`
	// Failed lists the indices whose evaluations exhausted the retry
	// budget, with their final error.
	Failed []IndexFailure `json:"failed,omitempty"`
	// Pending lists the indices never evaluated because the sweep was
	// cancelled or timed out.
	Pending []int `json:"pending,omitempty"`
	// Retries is the total number of re-attempts across all indices.
	Retries int `json:"retries"`
	// Resumed is how many completed indices were restored from the
	// checkpoint instead of evaluated.
	Resumed int `json:"resumed"`
	// CacheHits is how many completed indices were served from the
	// engine's memoization cache (or a concurrent in-flight computation)
	// instead of raw evaluation.
	CacheHits int `json:"cache_hits,omitempty"`
	// Canceled reports whether the sweep stopped on context cancellation
	// or deadline.
	Canceled bool `json:"canceled"`
	// WallTime is the sweep's wall-clock duration.
	WallTime time.Duration `json:"wall_time_ns"`
}

// SweepCtx evaluates the listed flat indices (all of them when indices is
// nil) through the evaluation engine: a worker pool hardened against
// cancellation, panicking evaluators and transient failures, with
// memoization and in-flight deduplication when opts.Engine is shared
// across sweeps. It returns a dense slice indexed by flat index (NaN for
// unevaluated entries), the structured report, and the context's error
// when the sweep was cut short. The values slice is valid in every case.
func SweepCtx(ctx context.Context, e CtxEvaluator, s Space, indices []int, opts SweepOptions) ([]float64, SweepReport, error) {
	start := time.Now() //lint:allow detguard wall time feeds SweepReport.Wall (reporting metadata), never the swept values
	size := s.Size()
	values := make([]float64, size)
	for i := range values {
		values[i] = math.NaN()
	}
	if indices == nil {
		indices = make([]int, size)
		for i := range indices {
			indices[i] = i
		}
	}
	rep := SweepReport{Total: len(indices)}

	// Observability rides in on the context: the sweep span wraps the
	// whole call, and the ephemeral engine (below) inherits the same
	// tracer/registry so engine.eval spans nest under dse.batch.
	tr := obs.TracerFrom(ctx)
	met := obs.MetricsFrom(ctx)
	met.Counter("dse_sweeps_total").Add(1)
	completedC := met.Counter("dse_points_completed_total")
	failedC := met.Counter("dse_points_failed_total")
	cacheHitC := met.Counter("dse_points_cache_hits_total")
	checkpointC := met.Counter("dse_checkpoints_total")
	ctx, sweepSp := tr.Start(ctx, "dse.sweep", obs.I("total", int64(len(indices))))
	defer func() {
		sweepSp.Annotate(
			obs.I("completed", int64(len(rep.Completed))),
			obs.I("failed", int64(len(rep.Failed))),
			obs.I("resumed", int64(rep.Resumed)),
			obs.I("cache_hits", int64(rep.CacheHits)))
		sweepSp.Finish()
	}()

	// Resume: restore completed indices from the checkpoint.
	done := make(map[int]bool)
	// times counts each flat index's completions, resumed ones included:
	// the report's completed list is read off it in index order, an
	// index listed as often as it completed.
	times := make([]int32, size)
	completed := 0
	completedList := func() []int {
		if completed == 0 {
			return nil
		}
		list := make([]int, 0, completed)
		for idx, k := range times {
			for ; k > 0; k-- {
				list = append(list, idx)
			}
		}
		return list
	}
	if opts.Resume && opts.CheckpointPath != "" {
		_, resumeSp := tr.Start(ctx, "dse.resume", obs.S("path", opts.CheckpointPath))
		ck, err := LoadCheckpoint(opts.CheckpointPath)
		switch {
		case os.IsNotExist(err):
			// Nothing to resume; a fresh sweep.
			resumeSp.Finish()
		case err != nil:
			resumeSp.Annotate(obs.S("error", err.Error()))
			resumeSp.Finish()
			rep.WallTime = time.Since(start) //lint:allow detguard WallTime is SweepReport metadata, never a swept value
			return values, rep, fmt.Errorf("dse: resume: %w", err)
		default:
			if ck.Signature != s.Signature() {
				resumeSp.Annotate(obs.S("error", "signature mismatch"))
				resumeSp.Finish()
				rep.WallTime = time.Since(start) //lint:allow detguard WallTime is SweepReport metadata, never a swept value
				return values, rep, fmt.Errorf("dse: resume: checkpoint %q belongs to a different space (signature %s, want %s)",
					opts.CheckpointPath, ck.Signature, s.Signature())
			}
			for i, idx := range ck.Indices {
				if idx >= 0 && idx < size {
					values[idx] = ck.Values[i]
					done[idx] = true
				}
			}
			resumeSp.Annotate(obs.I("restored", int64(len(done))))
			resumeSp.Finish()
		}
	}

	pending := make([]int, 0, len(indices))
	for _, idx := range indices {
		if done[idx] {
			times[idx]++
			completed++
			rep.Resumed++
		} else {
			pending = append(pending, idx)
		}
	}

	eng := opts.Engine
	if eng == nil {
		// Ephemeral engine for this sweep only: same pool/guard/retry
		// machinery, but no memoization (indices within one sweep are
		// unique, so a private cache could never hit) and a registry of
		// its own.
		eng = engine.New(engine.Options{CacheSize: -1, Tracer: tr})
	}

	// The plane is one flat slab sliced per point: a single allocation
	// feeds the engine's batched path with cache-adjacent points. The
	// points come off an odometer of per-dimension value indices, which
	// steps from one index to the next (a whole-space sweep's order) and
	// decodes any other index afresh.
	dims := s.Dims()
	slab := make([]float64, len(pending)*dims)
	points := make([][]float64, len(pending))
	digits := make([]int, dims)
	next := 0 // the flat index digits holds
	for i, idx := range pending {
		if idx != next {
			s.decode(digits, idx)
		}
		p := slab[i*dims : (i+1)*dims : (i+1)*dims]
		for d, c := range digits {
			p[d] = s.Params[d].Values[c]
		}
		points[i] = p
		for d := dims - 1; d >= 0; d-- {
			digits[d]++
			if digits[d] < len(s.Params[d].Values) {
				break
			}
			digits[d] = 0
		}
		next = idx + 1
	}

	every := opts.CheckpointEvery
	if every <= 0 {
		every = 256
	}
	var failed map[int]bool // pending indices that failed (nil until one does)
	sinceCk := 0
	var ckErr error
	save := func() {
		if opts.CheckpointPath == "" || ckErr != nil {
			return
		}
		_, ckSp := tr.Start(ctx, "dse.checkpoint", obs.I("completed", int64(completed)))
		ckErr = SaveCheckpoint(opts.CheckpointPath, s, values, completedList())
		if ckErr == nil {
			checkpointC.Add(1)
		} else {
			ckSp.Annotate(obs.S("error", ckErr.Error()))
		}
		ckSp.Finish()
	}
	// yield runs on EvaluateStream's single collector goroutine, so the
	// report and values need no locking.
	batchCtx, batchSp := tr.Start(ctx, "dse.batch", obs.I("points", int64(len(pending))))
	_ = eng.EvaluateStream(batchCtx, e, points, func(i int, o engine.Outcome) {
		idx := pending[i]
		if o.Attempts > 1 {
			rep.Retries += o.Attempts - 1
		}
		if o.Err != nil {
			if errors.Is(o.Err, context.Canceled) || errors.Is(o.Err, context.DeadlineExceeded) {
				// Interrupted, not failed: the index counts as pending so a
				// resumed sweep picks it up again.
				return
			}
			if failed == nil {
				failed = make(map[int]bool)
			}
			failed[idx] = true
			failedC.Add(1)
			rep.Failed = append(rep.Failed, IndexFailure{Index: idx, Attempts: o.Attempts, Err: o.Err.Error()})
			return
		}
		if o.CacheHit || o.Shared {
			rep.CacheHits++
			cacheHitC.Add(1)
		}
		completedC.Add(1)
		values[idx] = o.Value
		times[idx]++
		completed++
		sinceCk++
		if sinceCk >= every {
			sinceCk = 0
			save()
		}
	})
	batchSp.Finish()
	for _, idx := range pending {
		if times[idx] == 0 && !failed[idx] {
			rep.Pending = append(rep.Pending, idx)
		}
	}
	rep.Completed = completedList()
	sort.Slice(rep.Failed, func(i, j int) bool { return rep.Failed[i].Index < rep.Failed[j].Index })
	save()
	if ckErr != nil {
		rep.WallTime = time.Since(start) //lint:allow detguard WallTime is SweepReport metadata, never a swept value
		return values, rep, fmt.Errorf("dse: checkpoint: %w", ckErr)
	}
	rep.Canceled = ctx.Err() != nil
	rep.WallTime = time.Since(start) //lint:allow detguard WallTime is SweepReport metadata, never a swept value
	return values, rep, ctx.Err()
}
