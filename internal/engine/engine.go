// Package engine is the shared evaluation service behind every consumer
// of "design point → objective value" in the repository: the brute-force
// sweep (dse.SweepCtx), the APS flow (aps.RunCtx), the analytic optimizer
// (core.OptimizeCtx) and the CLIs. One Engine owns
//
//   - the worker pool (a global concurrency bound shared by every batch
//     submitted to the engine, so two concurrent sweeps cannot
//     oversubscribe the machine): each chunk runs in one slot of the
//     engine's Gate, Workers slots by default,
//   - an LRU memoization cache keyed on a precomputed 64-bit hash of the
//     (evaluator fingerprint, design point) pair — collision-checked
//     against the entry's exact identity, so a hash collision is a miss,
//     never a wrong value — so overlapping
//     explorations — APS re-simulating a neighborhood a ground-truth
//     sweep already covered, the optimizer re-probing a design — pay for
//     each distinct evaluation once. Its storage holds no pointer (slot
//     pages linked by slot number, points in float64 arena pages, and an
//     open-addressed index with per-engine seeded homes), so the garbage
//     collector never scans it, and an insert into a full cache reuses
//     the evicted entry's slot and room without allocating,
//   - in-flight deduplication (singleflight): concurrent requests for the
//     same key wait for the first computation instead of repeating it;
//     the in-flight table is the memo index's table type,
//   - panic isolation (a recovered panic becomes a *robust.PanicError)
//     and robust's retry with exponential backoff, applied uniformly so
//     no caller has to wire them separately,
//   - and its metric instruments (requests, raw evaluations, cache
//     hits, panics, retries, failures, evaluator wall time) in one
//     obs.Registry, read back as a Stats snapshot.
//
// Caching requires a fingerprint: an evaluator that implements
// Fingerprinter (or an engine.Func with an explicit FP) is memoized;
// anonymous evaluators are still guarded, retried and metered, but never
// cached, because two distinct closures of one type would collide.
package engine

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/robust"
)

// Fingerprinter gives an evaluator a canonical identity for memoization.
// Two evaluators must return equal fingerprints only if they compute the
// same function; the fingerprint therefore has to cover every parameter
// the evaluation depends on (configuration, workload, seed, ...).
type Fingerprinter interface {
	Fingerprint() string
}

// Func is a fingerprinted evaluator built from a closure: the way ad-hoc
// objectives (the optimizer's time probe, a figure sweep's scoring rule)
// participate in memoization.
type Func struct {
	// FP is the canonical fingerprint of F.
	FP string
	// F computes the objective at a point.
	F func(ctx context.Context, point []float64) (float64, error)
}

// EvaluateCtx implements robust.Evaluator.
func (f Func) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	return f.F(ctx, point)
}

// Fingerprint implements Fingerprinter.
func (f Func) Fingerprint() string { return f.FP }

// Gate arbitrates worker slots among competing submissions: every
// EvaluateStream chunk runs in one gate slot, so the gate is the pool's
// concurrency bound. An engine's default gate is a semaphore of Workers
// slots; an external scheduler — the server's per-tenant fair-share
// queue, for example — replaces it to decide whose work runs next. The
// gate sees the submission's context, which is where schedulers carry
// their identity (e.g. the requesting tenant).
//
// AcquireSlot blocks until a slot is granted, returning the release
// closure the caller must invoke after the evaluation, or ctx's error
// when the wait was cancelled. Implementations must be safe for
// concurrent use and must never return (nil, nil).
type Gate interface {
	AcquireSlot(ctx context.Context) (release func(), err error)
}

// Options configures a new Engine.
type Options struct {
	// Workers bounds the number of concurrently running evaluations
	// across all batches submitted to the engine (≤0: GOMAXPROCS).
	Workers int
	// CacheSize is the memoization capacity in entries. Zero selects
	// DefaultCacheSize; a negative value disables caching (and with it
	// in-flight deduplication). The cache's storage grows with its
	// entries, and a capacity beyond 2^31−2 entries is clamped to it.
	CacheSize int
	// Retry governs re-attempts of failing or panicking evaluations; the
	// zero value selects robust.DefaultRetry. Its backoff jitter runs on
	// a fixed seed.
	Retry robust.RetryPolicy
	// Tracer records an engine.eval span per raw computation (nil:
	// tracing disabled at a single branch's cost).
	Tracer *obs.Tracer
	// Metrics is the registry the engine counts in (engine_*_total,
	// engine_inflight, engine_eval_seconds), and Stats reads them back.
	// The instruments are resolved once here at construction, so the
	// evaluation hot path never performs a registry or context lookup.
	// Engines built on one registry share their counts. Nil gives the
	// engine a registry of its own.
	Metrics *obs.Registry
	// Gate, when non-nil, schedules EvaluateStream chunks in place of
	// the engine's own semaphore of Workers slots: each chunk evaluates
	// in one gate slot, so an external policy — fair-share across
	// tenants, priority classes — owns the dispatch order of the shared
	// pool, and the gate's capacity is the pool's bound. Size a custom
	// gate to Workers, as the server's is. Plain evaluators run in chunks
	// of one point, so the gate arbitrates their points individually.
	// Single-point Evaluate/Do calls bypass the gate; they are bounded by
	// the caller's own admission control.
	Gate Gate
}

// DefaultCacheSize is the memoization capacity when Options.CacheSize is
// zero. A full cache costs 80 + 8·dims bytes an entry: a 48-byte slot
// (hash, value, identity, recency links), the point's coordinates and
// two 16-byte index cells. Full of six-coordinate design points the
// default measures 130.0 bytes an entry, 34.1 MB.
const DefaultCacheSize = 1 << 18

// Outcome is the full result of one evaluation request.
type Outcome struct {
	// Value is the objective value (NaN when Err is non-nil).
	Value float64
	// Attempts is the number of evaluator invocations spent on this
	// request (0 when the value came from the cache or a shared
	// in-flight computation).
	Attempts int
	// CacheHit reports that the value was served from the memo cache.
	CacheHit bool
	// Shared reports that the request waited on a concurrent computation
	// of the same key instead of evaluating.
	Shared bool
	// Err is the final error after retries (nil for +Inf "infeasible"
	// results, which are legitimate values).
	Err error
}

// call is one in-flight computation other requests can wait on. It
// carries the exact key identity so a waiter can tell a genuine
// duplicate from a 64-bit hash collision.
type call struct {
	fpID  uint32
	point []float64
	done  chan struct{}
	out   Outcome
}

// Engine is the memoizing, metered evaluation service. Safe for
// concurrent use.
type Engine struct {
	workers int
	retry   robust.RetryPolicy
	rng     *robust.RNG
	gate    Gate // Options.Gate, or a semaphore of workers slots

	mu       sync.Mutex
	cache    *lruCache // nil when caching is disabled
	inflight table[*call]
	fps      map[string]uint32 // fingerprint → interned ID for exact key checks

	tracer *obs.Tracer
	obs    instruments
}

// instruments are the engine's pre-resolved registry handles: every
// counted event is one update of one of them, and Stats reads them
// back, so a metrics snapshot and Stats agree bit-for-bit. They are
// never nil.
type instruments struct {
	requests    *obs.Counter
	evaluations *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	dedups      *obs.Counter
	panics      *obs.Counter
	retries     *obs.Counter
	failures    *obs.Counter
	evictions   *obs.Counter
	inflight    *obs.Gauge
	evalSeconds *obs.Histogram
}

// newInstruments resolves the engine's instruments from r, or from a
// fresh registry when r is nil.
func newInstruments(r *obs.Registry) instruments {
	if r == nil {
		r = obs.NewRegistry()
	}
	return instruments{
		requests:    r.Counter("engine_requests_total"),
		evaluations: r.Counter("engine_evaluations_total"),
		cacheHits:   r.Counter("engine_cache_hits_total"),
		cacheMisses: r.Counter("engine_cache_misses_total"),
		dedups:      r.Counter("engine_dedups_total"),
		panics:      r.Counter("engine_panics_total"),
		retries:     r.Counter("engine_retries_total"),
		failures:    r.Counter("engine_failures_total"),
		evictions:   r.Counter("engine_evictions_total"),
		inflight:    r.Gauge("engine_inflight"),
		evalSeconds: r.Histogram("engine_eval_seconds", obs.LatencyBuckets()),
	}
}

// New builds an engine. The zero Options value gives GOMAXPROCS workers,
// the default cache size and the default retry policy.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers:  workers,
		retry:    opts.Retry,
		rng:      robust.NewRNG(0),
		gate:     opts.Gate,
		inflight: newTable[*call](),
		fps:      make(map[string]uint32),
		tracer:   opts.Tracer,
		obs:      newInstruments(opts.Metrics),
	}
	if e.gate == nil {
		e.gate = make(semaphore, workers)
	}
	if opts.CacheSize >= 0 {
		size := opts.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		e.cache = newLRU(size)
	}
	return e
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Evaluate runs one evaluation request through the full pipeline —
// cache, in-flight dedup, panic guard, retry — and returns the value and
// final error. Infeasible configurations are values (+Inf, nil error);
// errors mark faults or cancellation.
func (e *Engine) Evaluate(ctx context.Context, ev robust.Evaluator, point []float64) (float64, error) {
	o := e.Do(ctx, ev, point)
	return o.Value, o.Err
}

// Do is Evaluate with the full Outcome (attempt count, cache/shared
// provenance). The point is a one-point chunk run on the caller's
// goroutine, outside the gate.
func (e *Engine) Do(ctx context.Context, ev robust.Evaluator, point []float64) Outcome {
	var out [1]Outcome
	pts := [1][]float64{point}
	e.doChunk(ctx, ev, e.keyOf(ev), pts[:], out[:])
	return out[0]
}

// memoKey is an evaluator's memo identity, resolved once per stream
// (and once per Do).
type memoKey struct {
	cacheable bool
	fp        string
	seed      uint64 // KeySeed(fp)
}

// keyOf resolves ev's memo identity. Only fingerprinted evaluators on a
// caching engine are memoized.
func (e *Engine) keyOf(ev robust.Evaluator) memoKey {
	var k memoKey
	if f, ok := ev.(Fingerprinter); ok && e.cache != nil {
		k.cacheable = true
		k.fp = f.Fingerprint()
		k.seed = KeySeed(k.fp)
	}
	return k
}

// internLocked returns the stable ID of a fingerprint, assigning one on
// first sight. Caller holds e.mu.
func (e *Engine) internLocked(fp string) uint32 {
	if id, ok := e.fps[fp]; ok {
		return id
	}
	id := uint32(len(e.fps)) + 1
	e.fps[fp] = id
	return id
}

// deferral is a chunk point owned by another in-flight call.
type deferral struct {
	i int
	c *call
}

// doChunk is the engine's one classify → compute → publish path: it
// counts the chunk's requests and resolves outs[i] for every pts[i].
func (e *Engine) doChunk(ctx context.Context, ev robust.Evaluator, k memoKey, pts [][]float64, outs []Outcome) {
	e.obs.requests.Add(uint64(len(pts)))
	e.resolve(ctx, ev, k, pts, outs)
}

// resolve classifies every point (memo hit, owned miss, in-flight
// elsewhere) under a single lock acquisition, computes the misses in
// one guarded, retried call (computeChunk), publishes them to the cache
// and their waiters, and finally waits out the points another call
// owns, counting each as a dedup. Every request is thus exactly one
// hit, miss or dedup.
func (e *Engine) resolve(ctx context.Context, ev robust.Evaluator, k memoKey, pts [][]float64, outs []Outcome) {
	// A one-point chunk — every Do — keeps its bookkeeping on the stack,
	// so it allocates no more than its registration, computation and
	// memo insert need.
	var hashBuf [1]uint64
	var missBuf [1]int
	hashes, miss := hashBuf[:], missBuf[:0]
	if len(pts) > 1 {
		hashes, miss = make([]uint64, len(pts)), make([]int, 0, len(pts))
	}
	var (
		fpID     uint32
		calls    []call        // this chunk's registrations, by chunk index
		done     chan struct{} // their shared completion signal
		owned    int
		deferred []deferral
		hits     uint64
	)
	if !k.cacheable {
		for i := range pts {
			miss = append(miss, i)
		}
	} else {
		for i, p := range pts {
			hashes[i] = KeyHash(k.seed, p)
		}
		e.mu.Lock()
		fpID = e.internLocked(k.fp)
		for i, p := range pts {
			if v, ok := e.cache.get(hashes[i], fpID, p); ok {
				outs[i] = Outcome{Value: v, CacheHit: true}
				hits++
				continue
			}
			c := e.inflight.get(hashes[i])
			busy := c != nil
			if busy && c.fpID == fpID && pointsEqual(c.point, p) {
				deferred = append(deferred, deferral{i: i, c: c})
				continue
			}
			// A busy slot here is a 64-bit hash collision with a
			// different in-flight key: evaluate the point but keep it
			// out of the memo and dedup tables.
			if !busy {
				if calls == nil {
					calls = make([]call, len(pts))
					done = make(chan struct{})
				}
				calls[i] = call{fpID: fpID, point: p, done: done}
				e.inflight.put(hashes[i], &calls[i])
				owned++
			}
			miss = append(miss, i)
		}
		e.mu.Unlock()
		if hits > 0 {
			e.obs.cacheHits.Add(hits)
		}
		if len(miss) > 0 {
			e.obs.cacheMisses.Add(uint64(len(miss)))
		}
	}

	if len(miss) > 0 {
		e.computeChunk(ctx, ev, pts, miss, outs)
	}

	if owned > 0 {
		e.mu.Lock()
		// Our registrations are all still present (only this call removes
		// them), so a size match means the in-flight table holds nothing
		// else and they can be released in bulk — the common
		// single-stream case, where per-key deletes would be the costliest
		// table traffic of the publish path.
		bulk := owned == e.inflight.len()
		if bulk {
			e.inflight.reset()
		}
		var evicted uint64
		for _, i := range miss {
			c := &calls[i]
			if c.done == nil {
				continue // collision: not registered
			}
			c.out = outs[i]
			if !bulk {
				e.inflight.del(hashes[i])
			}
			if outs[i].Err == nil && e.cache.add(hashes[i], fpID, pts[i], outs[i].Value) {
				evicted++
			}
		}
		e.mu.Unlock()
		close(done)
		if evicted > 0 {
			e.obs.evictions.Add(evicted)
		}
	}

	// Resolved last: a duplicate point within this very chunk waits on a
	// call the publish above has already closed, so this cannot deadlock.
	for _, d := range deferred {
		select {
		case <-ctx.Done():
			outs[d.i] = Outcome{Value: math.NaN(), Err: ctx.Err()}
			continue
		case <-d.c.done:
		}
		if isContextErr(d.c.out.Err) {
			// The owner was cancelled, not the computation refuted:
			// classify the point again.
			e.resolve(ctx, ev, k, pts[d.i:d.i+1], outs[d.i:d.i+1])
			continue
		}
		e.obs.dedups.Add(1)
		outs[d.i] = Outcome{Value: d.c.out.Value, Shared: true, Err: d.c.out.Err}
	}
}

// EvaluateStream evaluates every point on the engine's worker pool and
// invokes yield(i, outcome) from a single goroutine (no locking needed in
// yield) as results complete, in completion order. The points are cut
// into chunks, each evaluated in one gate slot: a BatchEvaluator gets
// cache-friendly chunks whose misses share one kernel call (see
// DESIGN.md §12), a plain evaluator chunks of one point, keeping its
// retries, failures and gate slots per point. Workers claim chunks off
// one atomic cursor until the points run out or ctx is cancelled;
// points never started because ctx was cancelled produce no yield call.
// EvaluateStream returns ctx.Err() after all in-flight evaluations have
// finished — no worker goroutine outlives the call.
func (e *Engine) EvaluateStream(ctx context.Context, ev robust.Evaluator, points [][]float64, yield func(i int, o Outcome)) error {
	n := len(points)
	if n == 0 {
		return ctx.Err()
	}
	k := e.keyOf(ev)
	chunk := 1
	if _, ok := ev.(BatchEvaluator); ok {
		chunk = chunkSize(n, e.workers)
	}
	workers := min(e.workers, (n+chunk-1)/chunk)

	type res struct {
		lo   int
		outs []Outcome
	}
	var next atomic.Int64 // the next unclaimed chunk's first index
	results := make(chan res, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				// One gate slot per chunk: the gate is the bound every
				// stream on this engine shares.
				release, err := e.gate.AcquireSlot(ctx)
				if err != nil {
					return
				}
				hi := min(lo+chunk, n)
				outs := make([]Outcome, hi-lo)
				e.doChunk(ctx, ev, k, points[lo:hi], outs)
				release()
				results <- res{lo: lo, outs: outs}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	for r := range results {
		if yield != nil {
			for j, o := range r.outs {
				yield(r.lo+j, o)
			}
		}
	}
	return ctx.Err()
}

// CacheLen returns the current number of memoized entries.
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}

// CacheCap returns the memo cache capacity (0 when caching is disabled).
func (e *Engine) CacheCap() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.capacity
}

// semaphore is the engine's default Gate: one buffered slot per worker.
type semaphore chan struct{}

// AcquireSlot implements Gate.
func (s semaphore) AcquireSlot(ctx context.Context) (func(), error) {
	select {
	case s <- struct{}{}:
		return func() { <-s }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// isContextErr reports whether err marks cancellation or a deadline
// rather than an evaluation fault.
func isContextErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}
