package dse

import (
	"context"
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/robust"
)

// paperSpace is the full §IV grid of the c2bound family on the default
// chip.
func paperSpace(t *testing.T) Space {
	t.Helper()
	s, err := SpaceFor(familyModel(t, model.FamilyC2Bound), 0)
	if err != nil {
		t.Fatalf("SpaceFor: %v", err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := NewSpace(Param{Name: "x"}); err == nil {
		t.Error("valueless parameter accepted")
	}
	if _, err := NewSpace(Param{Values: []float64{1}}); err == nil {
		t.Error("nameless parameter accepted")
	}
}

func TestPaperGridIsMillionPoints(t *testing.T) {
	s := paperSpace(t)
	if s.Size() != 1000000 {
		t.Fatalf("paper space size = %d, want 10^6", s.Size())
	}
	if s.Dims() != 6 {
		t.Fatalf("dims = %d", s.Dims())
	}
}

func TestPaperGridAllFeasible(t *testing.T) {
	// The ground-truth sweep must have no infeasible holes: check the
	// worst corner (max everything) and a sample of corners.
	s := paperSpace(t)
	cfg := chip.DefaultConfig()
	corners := []int{0, s.Size() - 1, s.Size() / 2, 999, 123456}
	for _, idx := range corners {
		p := s.Point(idx)
		d := chip.Design{N: int(p[3] + 0.5), CoreArea: p[0], L1Area: p[1], L2Area: p[2]}
		if err := cfg.CheckFeasible(d); err != nil {
			t.Fatalf("index %d infeasible: %v", idx, err)
		}
	}
	// Explicit worst case.
	var worst []int
	for _, prm := range s.Params {
		worst = append(worst, len(prm.Values)-1)
	}
	p := s.Point(s.Index(worst))
	d := chip.Design{N: int(p[3] + 0.5), CoreArea: p[0], L1Area: p[1], L2Area: p[2]}
	if err := cfg.CheckFeasible(d); err != nil {
		t.Fatalf("max corner infeasible: %v", err)
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	s := paperSpace(t)
	for _, idx := range []int{0, 1, 9, 10, 999999, 123456, 987654} {
		coords := s.Coords(idx)
		if got := s.Index(coords); got != idx {
			t.Fatalf("round trip %d → %v → %d", idx, coords, got)
		}
	}
}

func TestPointMatchesPointAt(t *testing.T) {
	s := paperSpace(t)
	idx := 424242
	p := s.Point(idx)
	for d, c := range s.Coords(idx) {
		if p[d] != s.Params[d].Values[c] {
			t.Fatalf("Point mismatch at dim %d", d)
		}
	}
}

func TestDimIndex(t *testing.T) {
	s := paperSpace(t)
	for i, name := range []string{DimA0, DimA1, DimA2, DimN, DimIssue, DimROB} {
		got, err := s.DimIndex(name)
		if err != nil || got != i {
			t.Fatalf("DimIndex(%s) = %d, %v", name, got, err)
		}
	}
	if _, err := s.DimIndex("nope"); err == nil {
		t.Error("unknown dim accepted")
	}
}

func TestNeighborhood(t *testing.T) {
	s, _ := NewSpace(
		Param{Name: "a", Values: []float64{0, 1, 2, 3, 4}},
		Param{Name: "b", Values: []float64{0, 1, 2, 3, 4}},
	)
	center := []int{2, 2}
	nb := s.Neighborhood(center, 1, []int{0, 1})
	if len(nb) != 9 {
		t.Fatalf("radius-1 2-D neighborhood = %d points, want 9", len(nb))
	}
	// Edge clipping.
	nb = s.Neighborhood([]int{0, 0}, 1, []int{0, 1})
	if len(nb) != 4 {
		t.Fatalf("corner neighborhood = %d points, want 4", len(nb))
	}
	// Zero radius: only the center.
	nb = s.Neighborhood(center, 0, []int{0, 1})
	if len(nb) != 1 {
		t.Fatalf("radius-0 neighborhood = %d", len(nb))
	}
	// Negative radius treated as zero.
	nb = s.Neighborhood(center, -3, []int{0})
	if len(nb) != 1 {
		t.Fatalf("negative radius neighborhood = %d", len(nb))
	}
}

func TestSweepMatchesSequential(t *testing.T) {
	s, _ := NewSpace(
		Param{Name: "x", Values: []float64{1, 2, 3, 4, 5}},
		Param{Name: "y", Values: []float64{1, 2, 3, 4}},
	)
	eval := WithContext(EvaluatorFunc(func(p []float64) float64 { return p[0]*10 + p[1] }))
	par, _, _ := SweepCtx(context.Background(), eval, s, nil, SweepOptions{Engine: uncached(4, robust.RetryPolicy{MaxAttempts: 1})})
	seq, _, _ := SweepCtx(context.Background(), eval, s, nil, SweepOptions{Engine: uncached(1, robust.RetryPolicy{MaxAttempts: 1})})
	for i := range par {
		if par[i] != seq[i] {
			t.Fatalf("parallel/sequential mismatch at %d", i)
		}
	}
	idx, v := Best(par)
	if v != 11 || s.Point(idx)[0] != 1 || s.Point(idx)[1] != 1 {
		t.Fatalf("Best = %d (%v)", idx, v)
	}
}

func TestSweepIndicesPartial(t *testing.T) {
	s, _ := NewSpace(Param{Name: "x", Values: []float64{0, 1, 2, 3}})
	eval := WithContext(EvaluatorFunc(func(p []float64) float64 { return p[0] }))
	vals, _, _ := SweepCtx(context.Background(), eval, s, []int{1, 3}, SweepOptions{Engine: uncached(2, robust.RetryPolicy{MaxAttempts: 1})})
	if !math.IsNaN(vals[0]) || !math.IsNaN(vals[2]) {
		t.Fatal("unevaluated entries not NaN")
	}
	if vals[1] != 1 || vals[3] != 3 {
		t.Fatalf("evaluated entries wrong: %v", vals)
	}
	idx, v := Best(vals)
	if idx != 1 || v != 1 {
		t.Fatalf("Best over partial = %d, %v", idx, v)
	}
}

func TestBestEmptyAndInfinite(t *testing.T) {
	if idx, _ := Best(nil); idx != -1 {
		t.Fatal("Best(nil)")
	}
	if idx, _ := Best([]float64{math.Inf(1), math.NaN()}); idx != -1 {
		t.Fatal("Best with no finite entries")
	}
}

func TestReducedSpace(t *testing.T) {
	cfg := chip.DefaultConfig()
	s, err := ReducedSpace(cfg, 3)
	if err != nil {
		t.Fatalf("ReducedSpace: %v", err)
	}
	if s.Size() != 729 {
		t.Fatalf("reduced size = %d, want 3^6", s.Size())
	}
	// Largest values preserved.
	full := paperSpace(t)
	for d := range s.Params {
		fv := full.Params[d].Values
		rv := s.Params[d].Values
		if rv[len(rv)-1] != fv[len(fv)-1] {
			t.Fatalf("dim %d: max value %v != full max %v", d, rv[len(rv)-1], fv[len(fv)-1])
		}
	}
	if _, err := ReducedSpace(cfg, 0); err == nil {
		t.Error("per=0 accepted")
	}
	if _, err := ReducedSpace(cfg, 11); err == nil {
		t.Error("per=11 accepted")
	}
}

func TestSimEvaluatorFeasibility(t *testing.T) {
	ev, err := NewSimEvaluator(chip.DefaultConfig(), "stream", 1<<20, 2, 4000, 7)
	if err != nil {
		t.Fatalf("NewSimEvaluator: %v", err)
	}
	// Feasible point.
	good := []float64{4, 1, 4, 4, 4, 128}
	v := ev.Evaluate(good)
	if math.IsInf(v, 1) || v <= 0 {
		t.Fatalf("feasible point scored %v", v)
	}
	// Infeasible: 32 cores × huge areas.
	bad := []float64{40, 10, 40, 32, 4, 128}
	if !math.IsInf(ev.Evaluate(bad), 1) {
		t.Fatal("infeasible point not +Inf")
	}
	// Wrong dimension count.
	if !math.IsInf(ev.Evaluate([]float64{1, 2}), 1) {
		t.Fatal("short point not +Inf")
	}
	if _, err := NewSimEvaluator(chip.DefaultConfig(), "nope", 1<<20, 2, 4000, 7); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := NewSimEvaluator(chip.DefaultConfig(), "stream", 1<<20, 2, 0, 7); err == nil {
		t.Error("zero refs accepted")
	}
}

func TestSimEvaluatorPrefersCaches(t *testing.T) {
	// For an out-of-L1 working set, more L1 area at the same core count
	// must not hurt.
	ev, err := NewSimEvaluator(chip.DefaultConfig(), "fluidanimate", 1<<22, 2, 8000, 7)
	if err != nil {
		t.Fatalf("NewSimEvaluator: %v", err)
	}
	small := ev.Evaluate([]float64{4, 0.25, 4, 4, 4, 128})
	large := ev.Evaluate([]float64{4, 4, 4, 4, 4, 128})
	if large > small {
		t.Fatalf("4 mm² L1 (%v cycles) slower than 0.25 mm² (%v)", large, small)
	}
}

func TestSimEvaluatorDeterministic(t *testing.T) {
	ev, err := NewSimEvaluator(chip.DefaultConfig(), "stencil", 1<<20, 2, 4000, 7)
	if err != nil {
		t.Fatalf("NewSimEvaluator: %v", err)
	}
	p := []float64{4, 1, 4, 2, 4, 128}
	if a, b := ev.Evaluate(p), ev.Evaluate(p); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// TestC2BoundFamilyEvaluator checks the paper objective's shape through
// the family evaluator: the issue/ROB corrections reward wider cores, and
// infeasible or malformed points score +Inf.
func TestC2BoundFamilyEvaluator(t *testing.T) {
	ev := NewFamilyEvaluator(model.NewC2Bound(core.Model{Chip: chip.DefaultConfig(), App: core.FluidanimateApp()}))
	good := ev.Evaluate([]float64{4, 1, 4, 8, 4, 128})
	if math.IsInf(good, 1) {
		t.Fatal("feasible point infinite")
	}
	// Wider issue and bigger ROB improve the corrected time.
	better := ev.Evaluate([]float64{4, 1, 4, 8, 8, 256})
	if better >= good {
		t.Fatalf("wider core not faster: %v vs %v", better, good)
	}
	if !math.IsInf(ev.Evaluate([]float64{400, 1, 4, 8, 4, 128}), 1) {
		t.Fatal("infeasible point not +Inf")
	}
	if !math.IsInf(ev.Evaluate([]float64{1}), 1) {
		t.Fatal("short point not +Inf")
	}
}
