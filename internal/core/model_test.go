package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/speedup"
)

func testModel(app App) Model {
	return Model{Chip: chip.DefaultConfig(), App: app}
}

func midDesign(n int) chip.Design {
	return chip.Design{N: n, CoreArea: 4, L1Area: 1, L2Area: 4}
}

func TestEvaluateBasics(t *testing.T) {
	m := testModel(FluidanimateApp())
	e, err := m.Evaluate(midDesign(16))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if e.CPI <= e.CPIExe {
		t.Fatalf("CPI %v not above CPI_exe %v", e.CPI, e.CPIExe)
	}
	if e.CAMAT <= 0 || e.AMAT < e.CAMAT {
		t.Fatalf("AMAT %v, C-AMAT %v inconsistent", e.AMAT, e.CAMAT)
	}
	if e.C < 1 {
		t.Fatalf("concurrency %v below 1", e.C)
	}
	if e.Time <= 0 || e.Work <= 0 || e.Throughput <= 0 {
		t.Fatalf("degenerate evaluation %+v", e)
	}
	if e.L1MR <= 0 || e.L1MR > 1 || e.L2MR <= 0 || e.L2MR > 1 {
		t.Fatalf("miss rates out of range: %v %v", e.L1MR, e.L2MR)
	}
	p := m.CamatParams(e)
	if err := p.Validate(); err != nil {
		t.Fatalf("CamatParams invalid: %v", err)
	}
	if math.Abs(p.CAMAT()-e.CAMAT) > 1e-9*(1+e.CAMAT) {
		t.Fatalf("params C-AMAT %v != eval %v", p.CAMAT(), e.CAMAT)
	}
}

func TestEvaluateRejectsInfeasible(t *testing.T) {
	m := testModel(FluidanimateApp())
	if _, err := m.Evaluate(chip.Design{N: 1000, CoreArea: 4, L1Area: 1, L2Area: 4}); err == nil {
		t.Fatal("over-budget design evaluated")
	}
	bad := m
	bad.App.Fseq = 2
	if _, err := bad.Evaluate(midDesign(4)); err == nil {
		t.Fatal("invalid app accepted")
	}
	if got := m.TimeAt(chip.Design{N: 1000, CoreArea: 4, L1Area: 1, L2Area: 4}); !math.IsInf(got, 1) {
		t.Fatalf("TimeAt infeasible = %v, want +Inf", got)
	}
	if got := m.ThroughputAt(chip.Design{N: 1000, CoreArea: 4, L1Area: 1, L2Area: 4}); got != 0 {
		t.Fatalf("ThroughputAt infeasible = %v, want 0", got)
	}
}

func TestConcurrencyPinning(t *testing.T) {
	// With C_H = C_M = C and ratios 1, C-AMAT = AMAT/C exactly.
	base := StencilApp()
	for _, c := range []float64{1, 4, 8} {
		m := testModel(base.WithConcurrency(c))
		e, err := m.Evaluate(midDesign(8))
		if err != nil {
			t.Fatalf("Evaluate(C=%v): %v", c, err)
		}
		if math.Abs(e.C-c) > 1e-6*c {
			t.Fatalf("measured C = %v, want %v", e.C, c)
		}
		if math.Abs(e.CAMAT-e.AMAT/c) > 1e-9*(1+e.AMAT) {
			t.Fatalf("C-AMAT %v != AMAT/C %v", e.CAMAT, e.AMAT/c)
		}
	}
}

func TestTimeIncreasesWithFmem(t *testing.T) {
	// Fig. 8 vs Fig. 9: execution time grows with memory access frequency.
	app := StencilApp().WithConcurrency(4)
	app.G = speedup.PowerLaw(1.5)
	app.GOrder = 1.5
	d := midDesign(32)
	prev := 0.0
	for _, fmem := range []float64{0.1, 0.3, 0.6, 0.9} {
		a := app
		a.Fmem = fmem
		e, err := testModel(a).Evaluate(d)
		if err != nil {
			t.Fatalf("Evaluate(fmem=%v): %v", fmem, err)
		}
		if e.Time <= prev {
			t.Fatalf("T(fmem=%v) = %v not above previous %v", fmem, e.Time, prev)
		}
		prev = e.Time
	}
}

func TestThroughputDecreasesWithFmem(t *testing.T) {
	// Fig. 10 vs Fig. 11: throughput W/T falls with fmem.
	app := StencilApp().WithConcurrency(4)
	d := midDesign(32)
	prev := math.Inf(1)
	for _, fmem := range []float64{0.1, 0.3, 0.6, 0.9} {
		a := app
		a.Fmem = fmem
		e, err := testModel(a).Evaluate(d)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		if e.Throughput >= prev {
			t.Fatalf("W/T(fmem=%v) = %v not below previous %v", fmem, e.Throughput, prev)
		}
		prev = e.Throughput
	}
}

func TestHigherConcurrencyNeverSlower(t *testing.T) {
	// §IV: T(C=8) ≤ T(C=4) ≤ T(C=1) at every design point.
	app := StencilApp()
	app.G = speedup.PowerLaw(1.5)
	app.GOrder = 1.5
	for _, n := range []int{1, 8, 40} {
		d := midDesign(n)
		var prev float64 = math.Inf(1)
		for _, c := range []float64{1, 4, 8} {
			e, err := testModel(app.WithConcurrency(c)).Evaluate(d)
			if err != nil {
				t.Fatalf("Evaluate(N=%d,C=%v): %v", n, c, err)
			}
			if e.Time >= prev {
				t.Fatalf("N=%d: T(C=%v)=%v not below %v", n, c, e.Time, prev)
			}
			prev = e.Time
		}
	}
}

func TestContentionRaisesLatencyWithN(t *testing.T) {
	// More cores on a fixed memory system must not lower DRAM latency.
	app := StencilApp().WithConcurrency(4)
	m := testModel(app)
	var prev float64
	for _, n := range []int{1, 4, 16, 40} {
		e, err := m.Evaluate(midDesign(n))
		if err != nil {
			t.Fatalf("Evaluate(N=%d): %v", n, err)
		}
		if e.MemLat < prev-1e-9 {
			t.Fatalf("loaded latency fell from %v to %v at N=%d", prev, e.MemLat, n)
		}
		prev = e.MemLat
	}
}

func TestClassifyRegime(t *testing.T) {
	cases := []struct {
		g     speedup.ScaleFunc
		order float64
		want  Regime
	}{
		{speedup.FixedSize(), 0, MinimizeTime},
		{speedup.PowerLaw(0.5), 0.5, MinimizeTime},
		{speedup.Linear(), 1, MaximizeThroughput},
		{speedup.PowerLaw(1.5), 1.5, MaximizeThroughput},
	}
	for _, c := range cases {
		app := StencilApp()
		app.G = c.g
		app.GOrder = c.order
		if got := testModel(app).ClassifyRegime(); got != c.want {
			t.Errorf("order %v: regime = %v, want %v", c.order, got, c.want)
		}
	}
	// Derived order when GOrder is unset.
	app := StencilApp()
	app.G = speedup.PowerLaw(1.5)
	app.GOrder = 0
	if got := testModel(app).ClassifyRegime(); got != MaximizeThroughput {
		t.Errorf("derived regime = %v, want maximize", got)
	}
	if MinimizeTime.String() == "" || MaximizeThroughput.String() == "" {
		t.Error("empty regime strings")
	}
}

// TestOptimizeAreasConstraintTight checks that every catalog app's split
// fills the Eq. 12 budget and costs no more than the two Nelder-Mead
// starts can spend: 3 initial vertices plus at most 4 probes (reflect,
// expand or contract, and a 2-vertex shrink) in each of 400 iterations.
// A second solver run beside the simplex would blow that ceiling.
func TestOptimizeAreasConstraintTight(t *testing.T) {
	const maxEvals = 2 * (3 + 4*400)
	for name, app := range catalogApps {
		m := testModel(app())
		for _, n := range []int{1, 8, 64, 512} {
			d, evals, err := m.OptimizeAreas(n, Options{})
			if err != nil {
				t.Fatalf("%s OptimizeAreas(%d): %v", name, n, err)
			}
			if evals <= 0 || evals > maxEvals {
				t.Fatalf("%s N=%d: %d objective evaluations, want 1..%d", name, n, evals, maxEvals)
			}
			used := m.Chip.AreaUsed(d)
			if math.Abs(used-m.Chip.TotalArea) > 1e-6*m.Chip.TotalArea {
				t.Fatalf("%s N=%d: constraint slack, used %v of %v", name, n, used, m.Chip.TotalArea)
			}
			if d.CoreArea <= 0 || d.L1Area <= 0 || d.L2Area <= 0 {
				t.Fatalf("%s N=%d: non-positive areas: %v", name, n, d)
			}
		}
	}
}

func TestOptimizeAreasBeatsNaiveSplits(t *testing.T) {
	m := testModel(FluidanimateApp())
	n := 16
	d, _, err := m.OptimizeAreas(n, Options{})
	if err != nil {
		t.Fatalf("OptimizeAreas: %v", err)
	}
	opt := m.TimeAt(d)
	budget := (m.Chip.TotalArea - m.Chip.FixedArea) / float64(n)
	for _, w := range [][3]float64{
		{0.8, 0.1, 0.1}, {0.1, 0.8, 0.1}, {0.1, 0.1, 0.8}, {1.0 / 3, 1.0 / 3, 1.0 / 3},
	} {
		naive := chip.Design{N: n, CoreArea: budget * w[0], L1Area: budget * w[1], L2Area: budget * w[2]}
		if tn := m.TimeAt(naive); tn < opt*(1-1e-6) {
			t.Fatalf("naive split %v beats optimizer: %v < %v", w, tn, opt)
		}
	}
}

func TestOptimizeSublinearFindsFiniteN(t *testing.T) {
	// g(N) = N^0.5 < O(N): a finite N minimizes T, and pushing far beyond
	// it is strictly worse.
	app := FluidanimateApp()
	app.G = speedup.PowerLaw(0.5)
	app.GOrder = 0.5
	m := testModel(app)
	res, err := m.Optimize(Options{MaxN: 256})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Regime != MinimizeTime {
		t.Fatalf("regime = %v", res.Regime)
	}
	if res.Design.N < 1 || res.Design.N > 256 {
		t.Fatalf("optimal N = %d out of range", res.Design.N)
	}
	if res.Evaluations <= 0 {
		t.Fatal("no evaluations recorded")
	}
	// The far edges should not beat the optimum.
	for _, n := range []int{1, 256} {
		if n == res.Design.N {
			continue
		}
		d, _, err := m.OptimizeAreas(n, Options{MaxN: 256})
		if err != nil {
			continue
		}
		if tEdge := m.TimeAt(d); tEdge < res.Eval.Time*(1-1e-6) {
			t.Fatalf("N=%d beats reported optimum: %v < %v", n, tEdge, res.Eval.Time)
		}
	}
}

func TestOptimizeSuperlinearMaximizesThroughput(t *testing.T) {
	app := TMMApp() // g = N^1.5
	m := testModel(app)
	res, err := m.Optimize(Options{MaxN: 400})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Regime != MaximizeThroughput {
		t.Fatalf("regime = %v", res.Regime)
	}
	if res.Eval.Throughput <= 0 {
		t.Fatal("throughput not positive")
	}
	// A single-core design should achieve strictly less throughput.
	d1, _, err := m.OptimizeAreas(1, Options{MaxN: 400})
	if err != nil {
		t.Fatalf("OptimizeAreas(1): %v", err)
	}
	if tp1 := m.ThroughputAt(d1); tp1 >= res.Eval.Throughput {
		t.Fatalf("single core throughput %v ≥ optimum %v", tp1, res.Eval.Throughput)
	}
}

func TestAllocateCoresFig7Ordering(t *testing.T) {
	cfg := chip.DefaultConfig()
	apps := []App{SequentialHeavyApp(), ParallelConcurrentApp(), BalancedApp()}
	allocs, err := AllocateCores(cfg, apps, 64)
	if err != nil {
		t.Fatalf("AllocateCores: %v", err)
	}
	var total int
	for _, al := range allocs {
		total += al.Cores
		if al.Cores < 1 {
			t.Fatalf("app %q got %d cores", al.App.Name, al.Cores)
		}
	}
	if total > 64 {
		t.Fatalf("allocated %d cores of 64", total)
	}
	// Fig. 7 ordering: seq-heavy < balanced < par-concurrent.
	if !(allocs[0].Cores < allocs[2].Cores && allocs[2].Cores < allocs[1].Cores) {
		t.Fatalf("allocation ordering wrong: seq=%d balanced=%d par=%d",
			allocs[0].Cores, allocs[2].Cores, allocs[1].Cores)
	}
	// The parallel app should also achieve the largest speedup.
	if allocs[1].Speedup <= allocs[0].Speedup {
		t.Fatalf("par-concurrent speedup %v not above seq-heavy %v",
			allocs[1].Speedup, allocs[0].Speedup)
	}
}

func TestAllocateCoresErrors(t *testing.T) {
	cfg := chip.DefaultConfig()
	if _, err := AllocateCores(cfg, nil, 8); err == nil {
		t.Error("empty app list accepted")
	}
	if _, err := AllocateCores(cfg, []App{StencilApp(), TMMApp()}, 1); err == nil {
		t.Error("fewer cores than apps accepted")
	}
	bad := StencilApp()
	bad.Fseq = -1
	if _, err := AllocateCores(cfg, []App{bad}, 4); err == nil {
		t.Error("invalid app accepted")
	}
}

func TestSpeedupAt(t *testing.T) {
	app := StencilApp().WithConcurrency(4)
	m := testModel(app)
	s, err := m.SpeedupAt(midDesign(32))
	if err != nil {
		t.Fatalf("SpeedupAt: %v", err)
	}
	if s <= 1 {
		t.Fatalf("speedup %v not above 1 for a parallel app", s)
	}
	if _, err := m.SpeedupAt(chip.Design{N: 10000, CoreArea: 4, L1Area: 1, L2Area: 4}); err == nil {
		t.Fatal("infeasible design accepted")
	}
}

func TestAppValidate(t *testing.T) {
	good := FluidanimateApp()
	if err := good.Validate(); err != nil {
		t.Fatalf("good app rejected: %v", err)
	}
	for name, mutate := range map[string]func(*App){
		"fseq":     func(a *App) { a.Fseq = 1.5 },
		"fmem":     func(a *App) { a.Fmem = -0.1 },
		"overlap":  func(a *App) { a.Overlap = 2 },
		"ch":       func(a *App) { a.CH = 0.5 },
		"cm":       func(a *App) { a.CM = 0 },
		"pmrratio": func(a *App) { a.PMRRatio = 1.5 },
		"g nil":    func(a *App) { a.G = nil },
		"ic0":      func(a *App) { a.IC0 = 0 },
		"g(1)!=1":  func(a *App) { a.G = func(n float64) float64 { return 2 * n } },
		"NaN fseq": func(a *App) { a.Fseq = math.NaN() },
		"NaN fmem": func(a *App) { a.Fmem = math.NaN() },
		"NaN ch":   func(a *App) { a.CH = math.NaN() },
		"Inf ch":   func(a *App) { a.CH = math.Inf(1) },
		"Inf cm":   func(a *App) { a.CM = math.Inf(1) },
		"NaN pmr":  func(a *App) { a.PMRRatio = math.NaN() },
		"Inf pamp": func(a *App) { a.PAMPRatio = math.Inf(1) },
		"Inf ic0":  func(a *App) { a.IC0 = math.Inf(1) },
		"NaN gord": func(a *App) { a.GOrder = math.NaN() },
		"g(1) NaN": func(a *App) { a.G = func(float64) float64 { return math.NaN() } },
	} {
		a := good
		mutate(&a)
		err := a.Validate()
		if err == nil {
			t.Errorf("%s: invalid app accepted", name)
			continue
		}
		if !errors.Is(err, ErrInvalidApp) {
			t.Errorf("%s: error %v does not wrap ErrInvalidApp", name, err)
		}
	}
}

func TestPresetAppsValidate(t *testing.T) {
	for _, a := range []App{
		TMMApp(), StencilApp(), FFTApp(), FluidanimateApp(),
		SequentialHeavyApp(), ParallelConcurrentApp(), BalancedApp(),
	} {
		if err := a.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", a.Name, err)
		}
	}
}

func TestLagrangeSignClaim(t *testing.T) {
	// §III-C: ∂L/∂N > 0 (time grows with N, so no finite minimizer) iff
	// g(N) ≥ O(N). Check the numeric sign of dJ_D/dN at large N for
	// exponents on both sides of the boundary, holding the per-core area
	// split fixed (the partial derivative of Eq. 13).
	base := FluidanimateApp()
	dTdN := func(b float64, n int) float64 {
		app := base
		app.G = speedup.PowerLaw(b)
		app.GOrder = b
		cfg := chip.DefaultConfig()
		cfg.TotalArea = 1e9 // area not binding for the partial in N
		m := Model{Chip: cfg, App: app}
		d1 := chip.Design{N: n, CoreArea: 4, L1Area: 1, L2Area: 4}
		d2 := d1
		d2.N = n + 1
		return m.TimeAt(d2) - m.TimeAt(d1)
	}
	for _, b := range []float64{1.0, 1.25, 1.5} {
		if dTdN(b, 200) <= 0 {
			t.Errorf("b=%v: dJ/dN ≤ 0 at N=200, want > 0 (g ≥ O(N))", b)
		}
	}
	for _, b := range []float64{0, 0.25, 0.5} {
		// Below the boundary the workload term shrinks with N; at small N
		// (before contention dominates) time falls with N.
		if dTdN(b, 4) >= 0 {
			t.Errorf("b=%v: dJ/dN ≥ 0 at N=4, want < 0 (g < O(N))", b)
		}
	}
}
