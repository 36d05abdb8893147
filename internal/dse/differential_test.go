package dse

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/robust"
)

// The differential suite pins the central batched-evaluation invariant:
// a sweep through the engine — compiled kernel, chunked dispatch, memo
// cache — must be indistinguishable from the scalar oracle, the model's
// own Evaluate called point by point outside the engine: same bits and
// same optimum across every catalog model, with and without injected
// faults.

func diffModels() []core.Model {
	cfg := chip.DefaultConfig()
	return []core.Model{
		{Chip: cfg, App: core.TMMApp()},
		{Chip: cfg, App: core.StencilApp()},
		{Chip: cfg, App: core.FFTApp()},
		{Chip: cfg, App: core.FluidanimateApp()},
	}
}

// runDiffSweep sweeps the whole space `passes` times on one engine and
// returns the final values plus the engine's stats after each pass.
func runDiffSweep(t *testing.T, ev CtxEvaluator, s Space, passes int) ([]float64, []engine.Stats) {
	t.Helper()
	eng := engine.New(engine.Options{
		Workers:   4,
		CacheSize: s.Size() + 16,
		Retry:     robust.RetryPolicy{MaxAttempts: 10},
	})
	var values []float64
	var stats []engine.Stats
	for p := 0; p < passes; p++ {
		var rep SweepReport
		var err error
		values, rep, err = SweepCtx(context.Background(), ev, s, nil, SweepOptions{Engine: eng})
		if err != nil {
			t.Fatalf("sweep pass %d: %v", p, err)
		}
		if len(rep.Failed) != 0 {
			t.Fatalf("sweep pass %d: %d points failed, first %+v", p, len(rep.Failed), rep.Failed[0])
		}
		stats = append(stats, eng.Stats())
	}
	return values, stats
}

// c2Eval wraps a catalog model as the c2bound family evaluator.
func c2Eval(m core.Model) *FamilyEvaluator { return NewFamilyEvaluator(model.NewC2Bound(m)) }

// scalarOracle evaluates every point of s with a fresh family evaluator's
// EvaluateCtx — the family's Direct path (core.Model.Evaluate plus the
// issue/ROB corrections), outside the engine and the compiled kernel.
func scalarOracle(t *testing.T, m core.Model, s Space) []float64 {
	t.Helper()
	ev := c2Eval(m)
	vals := make([]float64, s.Size())
	for i := range vals {
		v, err := ev.EvaluateCtx(context.Background(), s.Point(i))
		if err != nil {
			t.Fatalf("oracle point %d: %v", i, err)
		}
		vals[i] = v
	}
	return vals
}

// assertBitIdentical fails on the first index where got and want differ
// by a single bit, and when their optima differ.
func assertBitIdentical(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("value lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("index %d: engine %x (%v) != oracle %x (%v)",
				i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
	gi, gv := Best(got)
	wi, wv := Best(want)
	if gi != wi || math.Float64bits(gv) != math.Float64bits(wv) {
		t.Fatalf("optima diverge: engine (%d, %v) oracle (%d, %v)", gi, gv, wi, wv)
	}
}

// TestDifferentialBatchVsScalar sweeps every catalog model through
// the engine, cold then warm, and demands bit-identical values and
// optimum against the scalar oracle plus the closed-form accounting: n
// evaluations and n misses on the cold pass, n hits on the warm pass.
func TestDifferentialBatchVsScalar(t *testing.T) {
	for _, m := range diffModels() {
		m := m
		t.Run(m.App.Name, func(t *testing.T) {
			t.Parallel()
			s, err := ReducedSpace(m.Chip, 4)
			if err != nil {
				t.Fatalf("ReducedSpace: %v", err)
			}
			vals, stats := runDiffSweep(t, c2Eval(m), s, 2)
			assertBitIdentical(t, vals, scalarOracle(t, m, s))

			n := uint64(s.Size())
			cold, warm := stats[0], stats[1].Delta(stats[0])
			if cold.Requests != n || cold.Evaluations != n || cold.CacheMisses != n || cold.CacheHits != 0 {
				t.Fatalf("cold pass: want %d requests, evaluations and misses, got %+v", n, cold)
			}
			if warm.Requests != n || warm.CacheHits != n || warm.Evaluations != 0 || warm.CacheMisses != 0 {
				t.Fatalf("warm pass: want %d requests and hits, got %+v", n, warm)
			}
		})
	}
}

// errTransient is the injected first-attempt failure.
var errTransient = errors.New("injected transient fault")

// faultInjector wraps a batch-capable evaluator and fails the first
// attempt for a deterministic ~20% of points, on both its scalar and its
// batched method, so the differential test exercises the retry
// machinery.
type faultInjector struct {
	inner *FamilyEvaluator

	mu   sync.Mutex
	seen map[uint64]bool // point key -> first attempt already failed
}

func newFaultInjector(m core.Model) *faultInjector {
	return &faultInjector{inner: c2Eval(m), seen: make(map[uint64]bool)}
}

// pointKey mixes the coordinates into a deterministic identity. A test
// space has far too few points for 64-bit collisions to matter.
func pointKey(point []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range point {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// shouldFail marks ~20% of points as transiently faulty.
func shouldFail(key uint64) bool { return key%5 == 0 }

// failFirst reports whether this call is the point's first attempt on a
// faulty point (and records the attempt).
func (f *faultInjector) failFirst(point []float64) bool {
	key := pointKey(point)
	if !shouldFail(key) {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen[key] {
		return false
	}
	f.seen[key] = true
	return true
}

func (f *faultInjector) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	if f.failFirst(point) {
		return math.NaN(), errTransient
	}
	return f.inner.EvaluateCtx(ctx, point)
}

func (f *faultInjector) EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error {
	failed := false
	for _, p := range points {
		if f.failFirst(p) {
			failed = true
		}
	}
	if failed {
		return errTransient
	}
	return f.inner.EvaluateBatch(ctx, points, out)
}

func (f *faultInjector) Fingerprint() string {
	return "dse.faulty{" + f.inner.Fingerprint() + "}"
}

// TestDifferentialBatchVsScalarWithFaults repeats the
// differential check with ~20% of points failing their first attempt:
// the retried engine sweep must still match the scalar oracle bit for
// bit.
func TestDifferentialBatchVsScalarWithFaults(t *testing.T) {
	for _, m := range diffModels() {
		m := m
		t.Run(m.App.Name, func(t *testing.T) {
			t.Parallel()
			s, err := ReducedSpace(m.Chip, 3)
			if err != nil {
				t.Fatalf("ReducedSpace: %v", err)
			}
			faulty := 0
			for i := 0; i < s.Size(); i++ {
				if shouldFail(pointKey(s.Point(i))) {
					faulty++
				}
			}
			if faulty == 0 {
				t.Fatal("fault pattern never fired; the test is vacuous")
			}
			vals, stats := runDiffSweep(t, newFaultInjector(m), s, 1)
			if stats[0].Retries == 0 {
				t.Fatalf("no retries despite %d faulty points: %+v", faulty, stats[0])
			}
			assertBitIdentical(t, vals, scalarOracle(t, m, s))
		})
	}
}
