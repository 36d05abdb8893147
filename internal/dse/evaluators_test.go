package dse

import (
	"context"
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/sim"
)

func TestBestEdgeCases(t *testing.T) {
	// All-NaN: nothing selectable, Best reports "no result".
	if idx, _ := Best([]float64{math.NaN(), math.NaN(), math.NaN()}); idx != -1 {
		t.Fatalf("Best(all NaN) = %d, want -1", idx)
	}
	// -Inf is a legitimate (if degenerate) minimum and must win over any
	// finite value.
	vals := []float64{3, math.Inf(-1), 1}
	if idx, v := Best(vals); idx != 1 || !math.IsInf(v, -1) {
		t.Fatalf("Best with -Inf = %d (%v)", idx, v)
	}
	// Ties break deterministically to the lowest index, so concurrent
	// sweeps and resumed sweeps always report the same optimum.
	vals = []float64{5, 2, 2, 2}
	if idx, v := Best(vals); idx != 1 || v != 2 {
		t.Fatalf("tie broke to %d (%v), want lowest index 1", idx, v)
	}
	// NaN holes between finite entries are skipped, not propagated.
	vals = []float64{math.NaN(), 4, math.NaN(), 2}
	if idx, v := Best(vals); idx != 3 || v != 2 {
		t.Fatalf("Best over NaN holes = %d (%v)", idx, v)
	}
}

func TestSimEvaluatorFaultScoresNaN(t *testing.T) {
	// Regression: a simulator fault must score NaN, not +Inf. +Inf is the
	// legitimate "infeasible design" score; if faults also returned +Inf a
	// faulty-but-feasible configuration would be indistinguishable from a
	// design that doesn't fit — and Best must never pick either.
	ev, err := NewSimEvaluator(chip.DefaultConfig(), "stream", 1<<20, 2, 4000, 7)
	if err != nil {
		t.Fatalf("NewSimEvaluator: %v", err)
	}
	// Force a simulator fault on a feasible point: break the workload name
	// after construction so Config() succeeds but the run cannot.
	ev.Workload = "no-such-workload"
	good := []float64{4, 1, 4, 4, 4, 128}
	v := ev.Evaluate(good)
	if !math.IsNaN(v) {
		t.Fatalf("faulted evaluation scored %v, want NaN", v)
	}
	if _, err := ev.EvaluateCtx(context.Background(), good); err == nil {
		t.Fatal("faulted EvaluateCtx returned nil error")
	}
	// The fault score can never be selected.
	if idx, _ := Best([]float64{v}); idx != -1 {
		t.Fatalf("Best selected a fault score (idx %d)", idx)
	}
	// Infeasible stays +Inf even on the broken evaluator: feasibility is
	// checked before the simulator runs.
	bad := []float64{40, 10, 40, 32, 4, 128}
	if !math.IsInf(ev.Evaluate(bad), 1) {
		t.Fatal("infeasible point not +Inf")
	}
}

// TestSimRunAllocationsPerReference pins the simulator allocation-free at
// the size one aps-sim design runs: fluidanimate, 50,000 references split
// over the cores of the first, middle and last designs of the per=3 space
// (3, 8 and 32 cores). What a run still allocates is per run or per core
// (traces, caches, the heaps' and tables' growth), not per reference.
func TestSimRunAllocationsPerReference(t *testing.T) {
	const refs = 50000
	ev, err := NewSimEvaluator(chip.DefaultConfig(), "fluidanimate", 1<<22, 2, refs, 17)
	if err != nil {
		t.Fatalf("NewSimEvaluator: %v", err)
	}
	space, err := ReducedSpace(ev.Chip, 3)
	if err != nil {
		t.Fatalf("ReducedSpace: %v", err)
	}
	ctx := context.Background()
	for _, idx := range []int{0, 364, 728} {
		cfg, err := ev.Config(space.Point(idx))
		if err != nil {
			t.Fatalf("design %d: %v", idx, err)
		}
		split := SplitRefs(refs, cfg.Cores)
		var runErr error
		allocs := testing.AllocsPerRun(1, func() {
			_, runErr = sim.RunWorkloadCountsCtx(ctx, cfg, ev.Workload, ev.WSBytes, ev.MeanGap, split, ev.Seed)
		})
		if runErr != nil {
			t.Fatalf("design %d: %v", idx, runErr)
		}
		t.Logf("design %d (%d cores): %.0f allocations, %.3f per reference", idx, cfg.Cores, allocs, allocs/refs)
		if allocs > refs {
			t.Errorf("design %d (%d cores): %.0f allocations for %d references, want at most one per reference", idx, cfg.Cores, allocs, refs)
		}
	}
}

func TestSplitRefs(t *testing.T) {
	cases := []struct {
		total, cores int
	}{
		{4000, 1}, {4000, 3}, {4000, 7}, {4001, 7}, {10, 32}, {0, 4}, {1, 1},
	}
	for _, c := range cases {
		refs := SplitRefs(c.total, c.cores)
		if len(refs) != c.cores {
			t.Fatalf("SplitRefs(%d,%d): %d entries", c.total, c.cores, len(refs))
		}
		sum, min, max := 0, refs[0], refs[0]
		for _, r := range refs {
			sum += r
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
		// Total invariance: no remainder lost to truncating division.
		if sum != c.total {
			t.Fatalf("SplitRefs(%d,%d) sums to %d", c.total, c.cores, sum)
		}
		// Balance: the split never skews by more than one reference.
		if max-min > 1 {
			t.Fatalf("SplitRefs(%d,%d) unbalanced: min %d max %d", c.total, c.cores, min, max)
		}
	}
	// Degenerate inputs yield a zero-filled (or empty) slice, not a panic.
	if refs := SplitRefs(100, 0); len(refs) != 0 {
		t.Fatalf("cores=0 gave %v", refs)
	}
	refs := SplitRefs(-5, 3)
	for _, r := range refs {
		if r != 0 {
			t.Fatalf("negative total gave %v", refs)
		}
	}
}
