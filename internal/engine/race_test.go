package engine

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/robust"
)

// TestConcurrentBatchesShareCacheAndBound stresses one engine from two
// concurrent batches over overlapping points (run under -race via `make
// race`): every point must be computed at most once across both batches,
// and the shared semaphore must never admit more than Workers evaluations
// at a time.
func TestConcurrentBatchesShareCacheAndBound(t *testing.T) {
	const workers = 4
	var running, peak, mu = 0, 0, sync.Mutex{}
	ev := &countingEval{fp: "shared"}
	ev.fn = func(p []float64) (float64, error) {
		mu.Lock()
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		mu.Lock()
		running--
		mu.Unlock()
		return p[0] * 3, nil
	}
	e := New(Options{Workers: workers})
	points := make([][]float64, 60)
	for i := range points {
		points[i] = []float64{float64(i % 30)} // each point appears twice
	}
	var wg sync.WaitGroup
	results := make([][]float64, 2)
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			vals := make([]float64, len(points))
			err := e.EvaluateStream(context.Background(), ev, points, func(i int, o Outcome) {
				if o.Err != nil {
					t.Errorf("batch %d point %d: %v", b, i, o.Err)
				}
				vals[i] = o.Value
			})
			if err != nil {
				t.Errorf("batch %d: %v", b, err)
			}
			results[b] = vals
		}(b)
	}
	wg.Wait()
	for b, vals := range results {
		for i, v := range vals {
			if want := float64(i%30) * 3; v != want {
				t.Fatalf("batch %d point %d = %v, want %v", b, i, v, want)
			}
		}
	}
	// 30 distinct points: memoization + singleflight must cap raw work.
	if got := ev.calls.Load(); got != 30 {
		t.Fatalf("raw calls = %d, want 30 (each distinct point once)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > workers {
		t.Fatalf("peak concurrency %d exceeded worker bound %d", peak, workers)
	}
}

// TestCancelledStreamLeaksNoGoroutines cancels a stream mid-flight and
// verifies every worker goroutine has exited once EvaluateStream returns.
func TestCancelledStreamLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ev := &countingEval{fp: "leak"}
	ev.fn = func(p []float64) (float64, error) {
		time.Sleep(time.Millisecond)
		return p[0], nil
	}
	e := New(Options{Workers: 8})
	points := make([][]float64, 500)
	for i := range points {
		points[i] = []float64{float64(i)}
	}
	done := 0
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_ = e.EvaluateStream(ctx, ev, points, func(int, Outcome) { done++ })
	if done == len(points) {
		t.Skip("stream finished before cancellation; nothing to check")
	}
	// The stream returned: all workers must wind down. Allow the runtime a
	// moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after cancelled stream", before, runtime.NumGoroutine())
}

// slowQuad is quadEval with a pause per batch call, so concurrent
// streams over one plane overlap and defer to each other's in-flight
// chunks.
type slowQuad struct{ quadEval }

func (s *slowQuad) EvaluateBatch(ctx context.Context, pts [][]float64, out []float64) error {
	time.Sleep(200 * time.Microsecond)
	return s.quadEval.EvaluateBatch(ctx, pts, out)
}

// flakyEval is a plain fingerprinted evaluator whose every fifth point
// fails its first attempt.
type flakyEval struct {
	mu     sync.Mutex
	failed map[float64]bool
}

func flakyPoint(p []float64) bool { return int(p[0])%5 == 0 }

func (f *flakyEval) Fingerprint() string { return "test.flaky" }

func (f *flakyEval) EvaluateCtx(_ context.Context, p []float64) (float64, error) {
	if flakyPoint(p) {
		f.mu.Lock()
		first := !f.failed[p[0]]
		f.failed[p[0]] = true
		f.mu.Unlock()
		if first {
			return math.NaN(), errors.New("injected first-attempt fault")
		}
	}
	return quadKernel(p), nil
}

// TestConcurrentStreamsConserveRequests runs four concurrent streams over
// one plane and checks the accounting identity: every request is exactly
// one cache hit, miss or dedup, and every point is computed once (plus
// one retry per faulty point).
func TestConcurrentStreamsConserveRequests(t *testing.T) {
	const n, streams = 512, 4
	pts := testPlane(n)
	faulty := 0
	for _, p := range pts {
		if flakyPoint(p) {
			faulty++
		}
	}
	for _, tc := range []struct {
		name   string
		ev     robust.Evaluator
		faulty int
	}{
		{"batch", &slowQuad{}, 0},
		{"plain", &flakyEval{failed: map[float64]bool{}}, faulty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{Workers: 4, Retry: robust.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Nanosecond}})
			var wg sync.WaitGroup
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]float64, n)
					if err := e.EvaluateBatch(context.Background(), tc.ev, pts, out); err != nil {
						t.Error(err)
						return
					}
					for i, p := range pts {
						if out[i] != quadKernel(p) {
							t.Errorf("point %d = %v, want %v", i, out[i], quadKernel(p))
							return
						}
					}
				}()
			}
			wg.Wait()
			st := e.Stats()
			if st.Requests != streams*n || st.CacheHits+st.CacheMisses+st.Dedups != st.Requests {
				t.Fatalf("requests %d, hits+misses+dedups %d, want both %d: %+v",
					st.Requests, st.CacheHits+st.CacheMisses+st.Dedups, streams*n, st)
			}
			if st.Failures != 0 || st.Retries != uint64(tc.faulty) || st.Evaluations != uint64(n+tc.faulty) {
				t.Fatalf("failures %d, retries %d, evaluations %d; want 0, %d, %d",
					st.Failures, st.Retries, st.Evaluations, tc.faulty, n+tc.faulty)
			}
		})
	}
}
