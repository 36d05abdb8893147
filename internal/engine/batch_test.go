package engine

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/robust"
)

// quadEval is a fingerprinted batch evaluator whose two paths share one
// kernel, so scalar and batched results are trivially bit-identical.
type quadEval struct {
	scalarCalls atomic.Int64
	batchCalls  atomic.Int64
	batchPoints atomic.Int64
}

func quadKernel(p []float64) float64 {
	s := 0.0
	for _, v := range p {
		s += v * v
	}
	return s
}

func (q *quadEval) Fingerprint() string { return "test.quad" }

func (q *quadEval) EvaluateCtx(_ context.Context, p []float64) (float64, error) {
	q.scalarCalls.Add(1)
	return quadKernel(p), nil
}

func (q *quadEval) EvaluateBatch(_ context.Context, pts [][]float64, out []float64) error {
	q.batchCalls.Add(1)
	q.batchPoints.Add(int64(len(pts)))
	for i, p := range pts {
		out[i] = quadKernel(p)
	}
	return nil
}

func testPlane(n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(i), float64(i % 7)}
	}
	return pts
}

func TestBatchStreamMatchesScalar(t *testing.T) {
	pts := testPlane(1000)
	out := make([]float64, len(pts))
	e := New(Options{Workers: 4})
	q := &quadEval{}
	if err := e.EvaluateBatch(context.Background(), q, pts, out); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if want := quadKernel(p); math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("point %d: batch %v != kernel %v", i, out[i], want)
		}
	}
	if q.scalarCalls.Load() != 0 {
		t.Fatalf("batched engine made %d scalar calls", q.scalarCalls.Load())
	}
	if got := q.batchPoints.Load(); got != int64(len(pts)) {
		t.Fatalf("batch evaluated %d points, want %d", got, len(pts))
	}
	n := uint64(len(pts))
	if st := e.Stats(); st.Requests != n || st.Evaluations != n || st.CacheMisses != n || st.CacheHits != 0 {
		t.Fatalf("cold accounting: %+v, want %d requests, evaluations and misses", st, n)
	}
}

func TestBatchSecondPassAllHits(t *testing.T) {
	pts := testPlane(500)
	out := make([]float64, len(pts))
	e := New(Options{Workers: 4})
	q := &quadEval{}
	if err := e.EvaluateBatch(context.Background(), q, pts, out); err != nil {
		t.Fatal(err)
	}
	first := q.batchPoints.Load()
	if err := e.EvaluateBatch(context.Background(), q, pts, out); err != nil {
		t.Fatal(err)
	}
	if q.batchPoints.Load() != first {
		t.Fatalf("second pass re-evaluated: %d → %d points", first, q.batchPoints.Load())
	}
	st := e.Stats()
	if st.CacheHits != uint64(len(pts)) {
		t.Fatalf("cache hits = %d, want %d", st.CacheHits, len(pts))
	}
}

// anonBatch implements both methods but no Fingerprint: batched, never
// cached.
type anonBatch struct{ quadEval }

func (a *anonBatch) Fingerprint() {} // shadow with a non-interface signature

func TestBatchAnonymousIsNotCached(t *testing.T) {
	pts := testPlane(64)
	out := make([]float64, len(pts))
	e := New(Options{Workers: 2})
	a := &anonBatch{}
	for pass := 0; pass < 2; pass++ {
		if err := e.EvaluateBatch(context.Background(), a, pts, out); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.batchPoints.Load(); got != int64(2*len(pts)) {
		t.Fatalf("anonymous batch evaluated %d points, want %d (no caching)", got, 2*len(pts))
	}
	if st := e.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("anonymous evaluator touched the cache: %+v", st)
	}
}

// faultyBatch panics on its first batch call, then succeeds.
type faultyBatch struct {
	quadEval
	failed atomic.Bool
}

func (f *faultyBatch) EvaluateBatch(ctx context.Context, pts [][]float64, out []float64) error {
	if f.failed.CompareAndSwap(false, true) {
		panic("injected batch panic")
	}
	return f.quadEval.EvaluateBatch(ctx, pts, out)
}

func TestBatchPanicIsolatedAndRetried(t *testing.T) {
	pts := testPlane(32)
	out := make([]float64, len(pts))
	e := New(Options{Workers: 1, Retry: robust.RetryPolicy{MaxAttempts: 3}})
	if err := e.EvaluateBatch(context.Background(), &faultyBatch{}, pts, out); err != nil {
		t.Fatalf("retry did not recover the panicking batch: %v", err)
	}
	for i, p := range pts {
		if out[i] != quadKernel(p) {
			t.Fatalf("point %d wrong after retry: %v", i, out[i])
		}
	}
	st := e.Stats()
	if st.Panics == 0 || st.Retries == 0 {
		t.Fatalf("panic/retry not metered: %+v", st)
	}
}

// errBatch always fails.
type errBatch struct{ quadEval }

func (*errBatch) EvaluateBatch(context.Context, [][]float64, []float64) error {
	return errors.New("kernel fault")
}

func TestBatchErrorYieldsNaNOutcomes(t *testing.T) {
	pts := testPlane(8)
	e := New(Options{Workers: 1, Retry: robust.RetryPolicy{MaxAttempts: 2}})
	var outcomes []Outcome
	err := e.EvaluateStream(context.Background(), &errBatch{}, pts, func(i int, o Outcome) {
		outcomes = append(outcomes, o)
	})
	if err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(outcomes) != len(pts) {
		t.Fatalf("yielded %d outcomes, want %d", len(outcomes), len(pts))
	}
	for _, o := range outcomes {
		if o.Err == nil || !math.IsNaN(o.Value) {
			t.Fatalf("failed outcome = %+v, want NaN value and error", o)
		}
	}
	if st := e.Stats(); st.Failures != uint64(len(pts)) {
		t.Fatalf("failures = %d, want %d (one per affected point)", st.Failures, len(pts))
	}
	// Failures must not be cached: a retry of the plane re-evaluates.
	if e.CacheLen() != 0 {
		t.Fatalf("cache holds %d entries after an all-failed batch", e.CacheLen())
	}
}

func TestBatchStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Options{Workers: 2})
	err := e.EvaluateStream(ctx, &quadEval{}, testPlane(100), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEvaluateBatchLengthMismatch(t *testing.T) {
	e := New(Options{})
	if err := e.EvaluateBatch(context.Background(), &quadEval{}, testPlane(3), make([]float64, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestWarmHitZeroAllocs pins the memo hot path: a warm hit — the
// per-point unit the old exact-bytes key allocated a string for —
// performs zero allocations, and a miss of a one-point Do stays within
// the five allocations of its registration, computation and memo insert.
func TestWarmHitZeroAllocs(t *testing.T) {
	e := New(Options{Workers: 1})
	// The conversion to the interface happens once here: a concrete Func
	// boxed per call would charge the caller one allocation, not the
	// engine.
	var ev robust.Evaluator = Func{FP: "alloc.probe", F: func(_ context.Context, p []float64) (float64, error) {
		return p[0], nil
	}}
	point := []float64{42, 7}
	ctx := context.Background()
	if _, err := e.Evaluate(ctx, ev, point); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		o := e.Do(ctx, ev, point)
		if !o.CacheHit {
			t.Fatal("expected a warm hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cache hit allocates %.1f objects/op, want 0", allocs)
	}

	cold := testPlane(512)
	next := 0
	allocs = testing.AllocsPerRun(200, func() {
		o := e.Do(ctx, ev, cold[next])
		next++
		if o.CacheHit || o.Attempts != 1 {
			t.Fatalf("expected a miss, got %+v", o)
		}
	})
	if allocs > 5 {
		t.Fatalf("one-point miss allocates %.1f objects/op, want at most 5", allocs)
	}
}

// BenchmarkWarmHit measures the scalar memo probe (the path the 64-bit
// hash key replaced exact-bytes string encoding on).
func BenchmarkWarmHit(b *testing.B) {
	e := New(Options{Workers: 1})
	var ev robust.Evaluator = Func{FP: "bench.warm", F: func(_ context.Context, p []float64) (float64, error) {
		return p[0] + p[1], nil
	}}
	points := testPlane(1024)
	ctx := context.Background()
	for _, p := range points {
		if _, err := e.Evaluate(ctx, ev, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Do(ctx, ev, points[i%len(points)])
	}
}

// BenchmarkBatchStream measures the per-point cost of chunked stream
// dispatch on a warm cache.
func BenchmarkBatchStream(b *testing.B) {
	e := New(Options{Workers: 4})
	q := &quadEval{}
	pts := testPlane(4096)
	ctx := context.Background()
	out := make([]float64, len(pts))
	if err := e.EvaluateBatch(ctx, q, pts, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.EvaluateBatch(ctx, q, pts, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perPoint := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(pts))
	b.ReportMetric(perPoint, "ns/point")
}
