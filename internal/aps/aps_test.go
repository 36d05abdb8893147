package aps

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/model"
)

func testSetup(t *testing.T, per int) (core.Model, dse.Space, dse.Evaluator) {
	t.Helper()
	m := core.Model{Chip: chip.DefaultConfig(), App: core.FluidanimateApp()}
	space, err := dse.ReducedSpace(m.Chip, per)
	if err != nil {
		t.Fatalf("ReducedSpace: %v", err)
	}
	return m, space, dse.NewFamilyEvaluator(model.NewC2Bound(m))
}

// sweepAll is the ground truth: eval at every point of space.
func sweepAll(t *testing.T, eval dse.Evaluator, space dse.Space) []float64 {
	t.Helper()
	truth, _, err := dse.SweepCtx(context.Background(), dse.WithContext(eval), space, nil, dse.SweepOptions{})
	if err != nil {
		t.Fatalf("ground-truth sweep: %v", err)
	}
	return truth
}

func TestRunBasic(t *testing.T) {
	m, space, eval := testSetup(t, 4)
	res, err := RunCtx(context.Background(), m, space, dse.WithContext(eval), Options{Optimize: core.Options{MaxN: 64}})
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if res.Simulations <= 0 {
		t.Fatal("no simulations recorded")
	}
	// Paper flow: only issue×ROB simulated → per² simulations.
	if res.Simulations != 16 {
		t.Fatalf("simulations = %d, want 4² = 16", res.Simulations)
	}
	if res.SpaceSize != space.Size() {
		t.Fatalf("space size = %d", res.SpaceSize)
	}
	if math.IsInf(res.BestValue, 1) {
		t.Fatal("best value infinite")
	}
	if len(res.BestPoint) != 6 {
		t.Fatalf("best point dims = %d", len(res.BestPoint))
	}
	// The snapped coordinates must be feasible.
	p := space.Point(space.Index(res.Snapped))
	d := chip.Design{N: int(p[3] + 0.5), CoreArea: p[0], L1Area: p[1], L2Area: p[2]}
	if err := m.Chip.CheckFeasible(d); err != nil {
		t.Fatalf("snapped point infeasible: %v", err)
	}
}

func TestRunNarrowsSpace(t *testing.T) {
	// The headline claim: APS reduces the explored space by ~4 orders of
	// magnitude (10⁶ → ~10²). On the reduced space the same ratio is
	// size/per⁴.
	m, space, eval := testSetup(t, 4)
	res, err := RunCtx(context.Background(), m, space, dse.WithContext(eval), Options{Optimize: core.Options{MaxN: 64}})
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	reduction := float64(res.SpaceSize) / float64(res.Simulations)
	if reduction < 100 {
		t.Fatalf("space reduction only %vx", reduction)
	}
}

func TestRunCloseToGroundTruth(t *testing.T) {
	// On the analytic evaluator, APS's chosen design should be within a
	// modest factor of the global optimum of the full sweep.
	m, space, eval := testSetup(t, 3)
	truth := sweepAll(t, eval, space)
	res, err := RunCtx(context.Background(), m, space, dse.WithContext(eval), Options{Optimize: core.Options{MaxN: 64}})
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	relErr, err := RelativeError(res.BestValue, truth)
	if err != nil {
		t.Fatalf("RelativeError: %v", err)
	}
	if relErr < 0 {
		t.Fatalf("APS better than ground truth best: %v", relErr)
	}
	if relErr > 0.5 {
		t.Fatalf("APS error %.3f vs ground truth too large", relErr)
	}
}

// TestRunCtxMatchesGolden pins one small APS run bit for bit: the
// analytic design, its snapped grid coordinates and the best simulated
// point and value, recorded as IEEE-754 bit patterns.
func TestRunCtxMatchesGolden(t *testing.T) {
	m, space, eval := testSetup(t, 3)
	res, err := RunCtx(context.Background(), m, space, dse.WithContext(eval), Options{Optimize: core.Options{MaxN: 64}})
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	d := res.Analytic.Design
	if d.N != 64 || res.Analytic.Method != "nelder-mead" {
		t.Fatalf("analytic N=%d method %q, want N=64 method nelder-mead", d.N, res.Analytic.Method)
	}
	for _, c := range []struct {
		name string
		v    float64
		want uint64
	}{
		{"A0", d.CoreArea, 0x40090f4487678177},
		{"A1", d.L1Area, 0x3ff44b9dfb7f2942},
		{"A2", d.L2Area, 0x3ff395d8f5b1d3ce},
		{"best value", res.BestValue, 0x42078c90bb0ce2f6},
	} {
		if math.Float64bits(c.v) != c.want {
			t.Errorf("%s: %#016x, want %#016x", c.name, math.Float64bits(c.v), c.want)
		}
	}
	if want := []int{2, 2, 2, 0, 0, 0}; !reflect.DeepEqual(res.Snapped, want) {
		t.Errorf("snapped %v, want %v", res.Snapped, want)
	}
	if res.BestIdx != 710 {
		t.Errorf("best index %d, want 710", res.BestIdx)
	}
}

func TestRunWithRadius(t *testing.T) {
	m, space, eval := testSetup(t, 3)
	res0, err := RunCtx(context.Background(), m, space, dse.WithContext(eval), Options{Optimize: core.Options{MaxN: 64}})
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	res1, err := RunCtx(context.Background(), m, space, dse.WithContext(eval), Options{Radius: 1, Optimize: core.Options{MaxN: 64}})
	if err != nil {
		t.Fatalf("RunCtx radius=1: %v", err)
	}
	if res1.Simulations <= res0.Simulations {
		t.Fatalf("radius did not widen the slice: %d vs %d", res1.Simulations, res0.Simulations)
	}
	if res1.BestValue > res0.BestValue {
		t.Fatalf("wider search found worse design: %v vs %v", res1.BestValue, res0.BestValue)
	}
}

func TestRunRejectsWrongSpace(t *testing.T) {
	m, _, eval := testSetup(t, 3)
	bad, err := dse.NewSpace(dse.Param{Name: "x", Values: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCtx(context.Background(), m, bad, dse.WithContext(eval), Options{}); err == nil {
		t.Fatal("space without paper dims accepted")
	}
}

func TestRelativeError(t *testing.T) {
	truth := []float64{5, 3, 4}
	got, err := RelativeError(3.3, truth)
	if err != nil {
		t.Fatalf("RelativeError: %v", err)
	}
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("rel err = %v, want 0.1", got)
	}
	if _, err := RelativeError(1, []float64{math.Inf(1)}); err == nil {
		t.Error("no finite truth accepted")
	}
	if _, err := RelativeError(1, []float64{0}); err == nil {
		t.Error("zero optimum accepted")
	}
}

func TestANNSearchReachesTarget(t *testing.T) {
	_, space, eval := testSetup(t, 3)
	truth := sweepAll(t, eval, space)
	search := &ANNSearch{
		Space: space, Truth: truth, Seed: 11,
		ChunkSize: 30, Epochs: 200, MaxSims: space.Size(),
	}
	res, err := search.Run(0.10)
	if err != nil {
		t.Fatalf("ANN search failed: %v", err)
	}
	if res.AchievedErr > 0.10 {
		t.Fatalf("achieved error %v above target", res.AchievedErr)
	}
	if res.Simulations <= 0 || res.Simulations > space.Size() {
		t.Fatalf("simulations = %d", res.Simulations)
	}
	if res.Rounds < 1 {
		t.Fatal("no rounds recorded")
	}
}

func TestANNSearchValidation(t *testing.T) {
	_, space, _ := testSetup(t, 3)
	s := &ANNSearch{Space: space, Truth: []float64{1, 2}}
	if _, err := s.Run(0.1); err == nil {
		t.Fatal("truth length mismatch accepted")
	}
	s = &ANNSearch{Space: space, Truth: make([]float64, space.Size())}
	for i := range s.Truth {
		s.Truth[i] = math.Inf(1)
	}
	if _, err := s.Run(0.1); err == nil {
		t.Fatal("all-infinite truth accepted")
	}
}

func TestANNNeedsMoreSimsThanAPS(t *testing.T) {
	// The paper's Fig. 12 relationship on the reduced space: APS's
	// simulation count is below the ANN baseline's at matched error.
	m, space, eval := testSetup(t, 3)
	truth := sweepAll(t, eval, space)
	apsRes, err := RunCtx(context.Background(), m, space, dse.WithContext(eval), Options{Optimize: core.Options{MaxN: 64}})
	if err != nil {
		t.Fatalf("APS: %v", err)
	}
	apsErr, err := RelativeError(apsRes.BestValue, truth)
	if err != nil {
		t.Fatalf("RelativeError: %v", err)
	}
	target := apsErr
	if target < 0.02 {
		target = 0.02
	}
	search := &ANNSearch{Space: space, Truth: truth, Seed: 5, ChunkSize: 30, Epochs: 200}
	annRes, err := search.Run(target)
	if err != nil {
		t.Logf("ANN did not reach target %v: %v (sims=%d)", target, err, annRes.Simulations)
	}
	if annRes.Simulations <= apsRes.Simulations {
		t.Fatalf("ANN (%d sims) did not need more than APS (%d)", annRes.Simulations, apsRes.Simulations)
	}
}
