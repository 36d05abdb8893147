package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// countingEval is a fingerprinted evaluator that counts raw invocations.
type countingEval struct {
	fp    string
	calls atomic.Int64
	fn    func(p []float64) (float64, error)
}

func (c *countingEval) Fingerprint() string { return c.fp }

func (c *countingEval) EvaluateCtx(_ context.Context, p []float64) (float64, error) {
	c.calls.Add(1)
	if c.fn != nil {
		return c.fn(p)
	}
	return p[0] * 2, nil
}

func TestEvaluateMemoizes(t *testing.T) {
	ev := &countingEval{fp: "double"}
	e := New(Options{Workers: 2})
	ctx := context.Background()
	v1, err := e.Evaluate(ctx, ev, []float64{3})
	if err != nil || v1 != 6 {
		t.Fatalf("first evaluate = %v, %v", v1, err)
	}
	v2, err := e.Evaluate(ctx, ev, []float64{3})
	if err != nil || v2 != 6 {
		t.Fatalf("second evaluate = %v, %v", v2, err)
	}
	if got := ev.calls.Load(); got != 1 {
		t.Fatalf("raw calls = %d, want 1 (memoized)", got)
	}
	st := e.Stats()
	if st.Requests != 2 || st.Evaluations != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	o := e.Do(ctx, ev, []float64{3})
	if !o.CacheHit || o.Value != 6 || o.Attempts != 0 {
		t.Fatalf("outcome = %+v, want cache hit", o)
	}
}

func TestFingerprintsSeparateCaches(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	a := Func{FP: "a", F: func(_ context.Context, p []float64) (float64, error) { return p[0] + 1, nil }}
	b := Func{FP: "b", F: func(_ context.Context, p []float64) (float64, error) { return p[0] + 2, nil }}
	va, _ := e.Evaluate(ctx, a, []float64{1})
	vb, _ := e.Evaluate(ctx, b, []float64{1})
	if va != 2 || vb != 3 {
		t.Fatalf("fingerprint collision: a=%v b=%v", va, vb)
	}
	if e.CacheLen() != 2 {
		t.Fatalf("cache entries = %d, want 2", e.CacheLen())
	}
}

func TestAnonymousEvaluatorNotCached(t *testing.T) {
	var calls atomic.Int64
	ev := robust.EvaluatorFunc(func(_ context.Context, p []float64) (float64, error) {
		calls.Add(1)
		return p[0], nil
	})
	e := New(Options{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if v, err := e.Evaluate(ctx, ev, []float64{7}); err != nil || v != 7 {
			t.Fatalf("evaluate = %v, %v", v, err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("anonymous evaluator calls = %d, want 3 (uncached)", calls.Load())
	}
	if e.CacheLen() != 0 {
		t.Fatalf("cache entries = %d for anonymous evaluator", e.CacheLen())
	}
	st := e.Stats()
	if st.Evaluations != 3 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	ev := &countingEval{fp: "x"}
	e := New(Options{CacheSize: -1})
	ctx := context.Background()
	e.Evaluate(ctx, ev, []float64{1})
	e.Evaluate(ctx, ev, []float64{1})
	if ev.calls.Load() != 2 {
		t.Fatalf("calls = %d with disabled cache, want 2", ev.calls.Load())
	}
}

func TestLRUEviction(t *testing.T) {
	ev := &countingEval{fp: "lru"}
	e := New(Options{CacheSize: 2})
	ctx := context.Background()
	e.Evaluate(ctx, ev, []float64{1})
	e.Evaluate(ctx, ev, []float64{2})
	e.Evaluate(ctx, ev, []float64{1}) // refresh 1 → 2 is now LRU
	e.Evaluate(ctx, ev, []float64{3}) // evicts 2
	e.Evaluate(ctx, ev, []float64{1}) // still cached
	e.Evaluate(ctx, ev, []float64{2}) // recompute
	if got := ev.calls.Load(); got != 4 {
		t.Fatalf("raw calls = %d, want 4 (points 1,2,3 + re-computed 2)", got)
	}
	st := e.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if e.CacheLen() != 2 {
		t.Fatalf("cache len = %d, want 2", e.CacheLen())
	}
}

func TestCacheKeyExactness(t *testing.T) {
	// Distinct points and fingerprints must produce distinct hashes, and
	// negative zero must not alias zero away (bit mixing is exact).
	keys := map[uint64]bool{
		KeyHash(KeySeed("a"), []float64{1, 2}):                 true,
		KeyHash(KeySeed("a"), []float64{2, 1}):                 true,
		KeyHash(KeySeed("b"), []float64{1, 2}):                 true,
		KeyHash(KeySeed("a"), []float64{1}):                    true,
		KeyHash(KeySeed("a"), []float64{math.Inf(1)}):          true,
		KeyHash(KeySeed("a"), []float64{math.Copysign(0, -1)}): true,
		KeyHash(KeySeed("a"), []float64{0}):                    true,
	}
	if len(keys) != 7 {
		t.Fatalf("key collisions: %d distinct of 7", len(keys))
	}
}

func TestCacheHashCollisionIsExact(t *testing.T) {
	// Force a collision by inserting two different identities under the
	// same 64-bit hash: the probe must miss for the evicted identity and
	// the resident value must stay correct — never a wrong value.
	c := newLRU(8)
	p1 := []float64{1, 2}
	p2 := []float64{3, 4}
	const h = uint64(0xdeadbeef)
	c.add(h, 1, p1, 10)
	if v, ok := c.get(h, 1, p1); !ok || v != 10 {
		t.Fatalf("get(p1) = %v,%v, want 10,true", v, ok)
	}
	if _, ok := c.get(h, 1, p2); ok {
		t.Fatal("get(p2) hit under p1's hash: collision returned a wrong value")
	}
	if _, ok := c.get(h, 2, p1); ok {
		t.Fatal("get(fpID=2) hit under fpID=1's entry")
	}
	c.add(h, 1, p2, 20) // collision replaces the resident identity
	if _, ok := c.get(h, 1, p1); ok {
		t.Fatal("p1 still resident after collision replacement")
	}
	if v, ok := c.get(h, 1, p2); !ok || v != 20 {
		t.Fatalf("get(p2) = %v,%v, want 20,true", v, ok)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1 (one slot per hash)", c.len())
	}
}

func TestSingleflightDeduplicates(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	ev := &countingEval{fp: "slow"}
	ev.fn = func(p []float64) (float64, error) {
		started <- struct{}{}
		<-release
		return p[0] * 10, nil
	}
	e := New(Options{Workers: 8})
	ctx := context.Background()
	const callers = 6
	var wg sync.WaitGroup
	results := make([]Outcome, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Do(ctx, ev, []float64{4})
		}(i)
	}
	<-started // first computation is running
	// Give the other callers a moment to park on the in-flight entry.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := ev.calls.Load(); got != 1 {
		t.Fatalf("raw calls = %d, want 1 (singleflight)", got)
	}
	shared := 0
	for _, o := range results {
		if o.Err != nil || o.Value != 40 {
			t.Fatalf("outcome = %+v", o)
		}
		if o.Shared {
			shared++
		}
	}
	if shared != callers-1 {
		t.Fatalf("shared outcomes = %d, want %d", shared, callers-1)
	}
	if st := e.Stats(); st.Dedups != callers-1 {
		t.Fatalf("dedups = %d, want %d", st.Dedups, callers-1)
	}
}

func TestPanicIsolatedAndCounted(t *testing.T) {
	ev := &countingEval{fp: "panicky"}
	ev.fn = func(p []float64) (float64, error) { panic("boom") }
	e := New(Options{Retry: robust.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}})
	o := e.Do(context.Background(), ev, []float64{1})
	if o.Err == nil {
		t.Fatal("panic swallowed")
	}
	var pe *robust.PanicError
	if !errors.As(o.Err, &pe) {
		t.Fatalf("err = %v, want PanicError", o.Err)
	}
	st := e.Stats()
	if st.Panics != 2 || st.Retries != 1 || st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if e.CacheLen() != 0 {
		t.Fatal("failed outcome was cached")
	}
}

func TestTransientFailureRetriedThenCached(t *testing.T) {
	var calls atomic.Int64
	ev := &countingEval{fp: "flaky"}
	ev.fn = func(p []float64) (float64, error) {
		if calls.Add(1) < 3 {
			return math.NaN(), errors.New("transient")
		}
		return 99, nil
	}
	e := New(Options{Retry: robust.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}})
	o := e.Do(context.Background(), ev, []float64{1})
	if o.Err != nil || o.Value != 99 || o.Attempts != 3 {
		t.Fatalf("outcome = %+v", o)
	}
	// Second request: memoized, no further raw calls.
	o2 := e.Do(context.Background(), ev, []float64{1})
	if !o2.CacheHit || o2.Value != 99 {
		t.Fatalf("outcome2 = %+v", o2)
	}
	if calls.Load() != 3 {
		t.Fatalf("raw calls = %d", calls.Load())
	}
	if st := e.Stats(); st.Retries != 2 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEvalSecondsCountsEveryEvaluation fails one point twice before it
// succeeds, on the scalar and on the batched path: each observes
// engine_eval_seconds once per raw evaluation.
func TestEvalSecondsCountsEveryEvaluation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		batched bool
	}{
		{"Func", false},
		{"BatchFunc", true},
	} {
		var calls atomic.Int64
		flaky := func(_ context.Context, p []float64) (float64, error) {
			if calls.Add(1) < 3 {
				return math.NaN(), errors.New("transient")
			}
			return p[0], nil
		}
		var ev robust.Evaluator = Func{FP: "flaky", F: flaky}
		if tc.batched {
			ev = BatchFunc{Func: Func{FP: "flaky", F: flaky}, B: func(ctx context.Context, pts [][]float64, out []float64) error {
				for i, p := range pts {
					v, err := flaky(ctx, p)
					if err != nil {
						return err
					}
					out[i] = v
				}
				return nil
			}}
		}
		reg := obs.NewRegistry()
		e := New(Options{Retry: robust.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}, Metrics: reg})
		if o := e.Do(context.Background(), ev, []float64{1}); o.Err != nil || o.Attempts != 3 {
			t.Fatalf("%s: outcome = %+v, want success on attempt 3", tc.name, o)
		}
		evals := e.Stats().Evaluations
		if got := reg.Histogram("engine_eval_seconds", nil).Count(); evals != 3 || got != evals {
			t.Errorf("%s: engine_eval_seconds count = %d, evaluations = %d, want 3 and 3", tc.name, got, evals)
		}
	}
}

func TestCancelledRequestNotCached(t *testing.T) {
	ev := &countingEval{fp: "blocky"}
	ev.fn = func(p []float64) (float64, error) { return p[0], nil }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Options{})
	o := e.Do(ctx, ev, []float64{5})
	if !errors.Is(o.Err, context.Canceled) {
		t.Fatalf("err = %v", o.Err)
	}
	if e.CacheLen() != 0 {
		t.Fatal("cancelled outcome cached")
	}
	// A fresh context must still compute the value.
	v, err := e.Evaluate(context.Background(), ev, []float64{5})
	if err != nil || v != 5 {
		t.Fatalf("post-cancel evaluate = %v, %v", v, err)
	}
}

func TestInfeasibleInfIsCachedValue(t *testing.T) {
	ev := &countingEval{fp: "inf"}
	ev.fn = func(p []float64) (float64, error) { return math.Inf(1), nil }
	e := New(Options{})
	ctx := context.Background()
	v1, err1 := e.Evaluate(ctx, ev, []float64{1})
	v2, err2 := e.Evaluate(ctx, ev, []float64{1})
	if err1 != nil || err2 != nil || !math.IsInf(v1, 1) || !math.IsInf(v2, 1) {
		t.Fatalf("inf results: %v/%v %v/%v", v1, err1, v2, err2)
	}
	if ev.calls.Load() != 1 {
		t.Fatalf("+Inf not memoized: %d calls", ev.calls.Load())
	}
}

func TestEvaluateStreamCompletesAll(t *testing.T) {
	ev := &countingEval{fp: "stream"}
	e := New(Options{Workers: 4})
	points := make([][]float64, 50)
	for i := range points {
		points[i] = []float64{float64(i)}
	}
	got := make([]float64, len(points))
	seen := 0
	err := e.EvaluateStream(context.Background(), ev, points, func(i int, o Outcome) {
		if o.Err != nil {
			t.Errorf("point %d: %v", i, o.Err)
		}
		got[i] = o.Value
		seen++
	})
	if err != nil {
		t.Fatalf("stream err = %v", err)
	}
	if seen != len(points) {
		t.Fatalf("yielded %d of %d", seen, len(points))
	}
	for i := range points {
		if got[i] != float64(i)*2 {
			t.Fatalf("point %d = %v", i, got[i])
		}
	}
}

func TestStatsDeltaAndString(t *testing.T) {
	ev := &countingEval{fp: "d"}
	e := New(Options{})
	ctx := context.Background()
	e.Evaluate(ctx, ev, []float64{1})
	s0 := e.Stats()
	e.Evaluate(ctx, ev, []float64{1})
	e.Evaluate(ctx, ev, []float64{2})
	d := e.Stats().Delta(s0)
	if d.Requests != 2 || d.Evaluations != 1 || d.CacheHits != 1 {
		t.Fatalf("delta = %+v", d)
	}
	if d.String() == "" {
		t.Fatal("empty stats string")
	}
	if hr := d.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v", hr)
	}
}

// meterRun is everything one evaluation leaves behind on a fresh engine:
// the outcome, the Stats counters, the instruments Stats does not carry
// and the engine.eval spans' attempts and error attributes.
type meterRun struct {
	out         Outcome
	stats       Stats
	evalSeconds uint64
	inflight    int64
	spans       []string
}

// errClass names the class of an outcome's error, the part of it a
// caller dispatches on.
func errClass(err error) string {
	var pe *robust.PanicError
	switch {
	case err == nil:
		return "none"
	case errors.As(err, &pe):
		return "panic"
	case isContextErr(err):
		return "context"
	default:
		return "fault"
	}
}

// TestPlainAndBatchEvaluatorsMeterAlike runs each outcome an evaluation
// can have (a value, +Inf, a fault that clears on retry, a persistent
// fault and a panic) through a plain Func and through its BatchFunc
// twin, by Do and by a one-point EvaluateStream, and an already-cancelled
// context through Do. The twins must agree on the outcome and on
// everything the engine meters, and the plain side must match the
// closed-form counts of the retry policy.
func TestPlainAndBatchEvaluatorsMeterAlike(t *testing.T) {
	fault := errors.New("evaluator fault")
	scenarios := []struct {
		name      string
		f         func(call int64, p []float64) (float64, error) // call counts from 1
		cancelled bool
		// Closed-form counts of the plain side.
		attempts                            int
		evaluations, retries, fails, panics uint64
	}{
		{name: "ok", f: func(_ int64, p []float64) (float64, error) { return p[0] * 2, nil },
			attempts: 1, evaluations: 1},
		{name: "inf", f: func(int64, []float64) (float64, error) { return math.Inf(1), nil },
			attempts: 1, evaluations: 1},
		{name: "fail-once", f: func(call int64, p []float64) (float64, error) {
			if call == 1 {
				return math.NaN(), fault
			}
			return p[0] + 1, nil
		}, attempts: 2, evaluations: 2, retries: 1},
		{name: "always-fail", f: func(int64, []float64) (float64, error) { return math.NaN(), fault },
			attempts: 3, evaluations: 3, retries: 2, fails: 1},
		{name: "panic", f: func(int64, []float64) (float64, error) { panic("evaluator panic") },
			attempts: 3, evaluations: 3, retries: 2, fails: 1, panics: 3},
		{name: "cancelled", f: func(_ int64, p []float64) (float64, error) { return p[0], nil },
			cancelled: true},
	}
	run := func(batched, stream bool, f func(int64, []float64) (float64, error), cancelled bool) meterRun {
		var calls atomic.Int64
		fn := func(_ context.Context, p []float64) (float64, error) { return f(calls.Add(1), p) }
		var ev robust.Evaluator = Func{FP: "meter", F: fn}
		if batched {
			ev = BatchFunc{Func: Func{FP: "meter", F: fn}, B: func(ctx context.Context, pts [][]float64, out []float64) error {
				for i, p := range pts {
					v, err := fn(ctx, p)
					if err != nil {
						return err
					}
					out[i] = v
				}
				return nil
			}}
		}
		reg, tr := obs.NewRegistry(), obs.NewTracer(64)
		e := New(Options{
			Workers: 1,
			Retry:   robust.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
			Tracer:  tr,
			Metrics: reg,
		})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelled {
			cancel()
		}
		var r meterRun
		point := []float64{1.5}
		if stream {
			yields := 0
			if err := e.EvaluateStream(ctx, ev, [][]float64{point}, func(_ int, o Outcome) {
				r.out = o
				yields++
			}); err != nil || yields != 1 {
				t.Fatalf("stream: err %v, %d yields, want nil and 1", err, yields)
			}
		} else {
			r.out = e.Do(ctx, ev, point)
		}
		r.stats = e.Stats()
		r.stats.WallTime = 0
		r.evalSeconds = reg.Histogram("engine_eval_seconds", nil).Count()
		r.inflight = reg.Gauge("engine_inflight").Value()
		for _, sp := range tr.Snapshot() {
			if sp.Name != "engine.eval" {
				continue
			}
			attrs := map[string]interface{}{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
			r.spans = append(r.spans, fmt.Sprintf("attempts=%v error=%v", attrs["attempts"], attrs["error"]))
		}
		return r
	}
	for _, sc := range scenarios {
		for _, stream := range []bool{false, true} {
			if stream && sc.cancelled {
				continue
			}
			name := sc.name + "/Do"
			if stream {
				name = sc.name + "/EvaluateStream"
			}
			t.Run(name, func(t *testing.T) {
				plain := run(false, stream, sc.f, sc.cancelled)
				batch := run(true, stream, sc.f, sc.cancelled)
				po, bo := plain.out, batch.out
				if math.Float64bits(po.Value) != math.Float64bits(bo.Value) || po.Attempts != bo.Attempts ||
					po.CacheHit != bo.CacheHit || po.Shared != bo.Shared || errClass(po.Err) != errClass(bo.Err) {
					t.Errorf("outcomes differ: plain %+v, batch %+v", po, bo)
				}
				if plain.stats != batch.stats {
					t.Errorf("stats differ:\nplain %+v\nbatch %+v", plain.stats, batch.stats)
				}
				if plain.evalSeconds != batch.evalSeconds || plain.evalSeconds != plain.stats.Evaluations {
					t.Errorf("engine_eval_seconds count: plain %d, batch %d, want both %d evaluations",
						plain.evalSeconds, batch.evalSeconds, plain.stats.Evaluations)
				}
				if plain.inflight != 0 || batch.inflight != 0 {
					t.Errorf("engine_inflight ends at plain %d, batch %d, want 0", plain.inflight, batch.inflight)
				}
				if fmt.Sprint(plain.spans) != fmt.Sprint(batch.spans) || len(plain.spans) != 1 {
					t.Errorf("engine.eval spans: plain %q, batch %q, want one alike", plain.spans, batch.spans)
				}
				st := plain.stats
				if po.Attempts != sc.attempts || st.Evaluations != sc.evaluations || st.Retries != sc.retries ||
					st.Failures != sc.fails || st.Panics != sc.panics {
					t.Errorf("plain: %d attempts, %d evaluations, %d retries, %d failures, %d panics; want %d, %d, %d, %d, %d",
						po.Attempts, st.Evaluations, st.Retries, st.Failures, st.Panics,
						sc.attempts, sc.evaluations, sc.retries, sc.fails, sc.panics)
				}
			})
		}
	}
}
