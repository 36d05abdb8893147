package aps

import (
	"context"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
)

func testModelWithApp(app core.App) core.Model {
	return core.Model{Chip: chip.DefaultConfig(), App: app}
}

func optimizeOpts() core.Options { return core.Options{MaxN: 64} }

func TestCharacterizeFluidanimate(t *testing.T) {
	app, err := CharacterizeCtx(context.Background(), CharacterizeOptions{
		Workload: "fluidanimate", WSBytes: 4 << 20, Refs: 8000, Seed: 3,
	})
	if err != nil {
		t.Fatalf("CharacterizeCtx: %v", err)
	}
	if err := app.Validate(); err != nil {
		t.Fatalf("profile invalid: %v", err)
	}
	// fmem must reflect the generator's mean gap of 2: ≈ 1/3.
	if app.Fmem < 0.2 || app.Fmem > 0.5 {
		t.Fatalf("fmem = %v, want ≈ 1/3", app.Fmem)
	}
	// Concurrency parameters must show real overlap on this machine.
	if app.CM <= 1 {
		t.Fatalf("C_M = %v, want > 1 (MSHRs provide MLP)", app.CM)
	}
	// Miss rate curves must be monotone nonincreasing in capacity.
	if app.L1Miss.At(8) < app.L1Miss.At(64) {
		t.Fatalf("L1 curve not decreasing: %v vs %v", app.L1Miss.At(8), app.L1Miss.At(64))
	}
	if app.GOrder != 1.2 {
		t.Fatalf("fluidanimate g order = %v", app.GOrder)
	}
}

func TestCharacterizeDefaultsAndErrors(t *testing.T) {
	if _, err := CharacterizeCtx(context.Background(), CharacterizeOptions{}); err == nil {
		t.Fatal("missing workload accepted")
	}
	if _, err := CharacterizeCtx(context.Background(), CharacterizeOptions{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// Defaults fill: tiny refs still work.
	app, err := CharacterizeCtx(context.Background(), CharacterizeOptions{Workload: "stencil", Refs: 2000, WSBytes: 1 << 20})
	if err != nil {
		t.Fatalf("CharacterizeCtx stencil: %v", err)
	}
	if app.Fseq != 0.05 {
		t.Fatalf("default fseq = %v", app.Fseq)
	}
	if app.GOrder != 1 {
		t.Fatalf("stencil g order = %v", app.GOrder)
	}
}

func TestCharacterizeGOrderOverride(t *testing.T) {
	app, err := CharacterizeCtx(context.Background(), CharacterizeOptions{
		Workload: "stream", Refs: 2000, WSBytes: 1 << 20, GOrder: 0.7, Fseq: 0.2,
	})
	if err != nil {
		t.Fatalf("CharacterizeCtx: %v", err)
	}
	if app.GOrder != 0.7 || app.Fseq != 0.2 {
		t.Fatalf("overrides not applied: %v %v", app.GOrder, app.Fseq)
	}
}

func TestCharacterizedProfileDrivesOptimization(t *testing.T) {
	// End-to-end: the measured profile must be directly usable by the
	// C²-Bound optimizer.
	app, err := CharacterizeCtx(context.Background(), CharacterizeOptions{
		Workload: "tiledmm", WSBytes: 2 << 20, Refs: 6000, Seed: 5,
	})
	if err != nil {
		t.Fatalf("CharacterizeCtx: %v", err)
	}
	m := testModelWithApp(app)
	res, err := m.Optimize(optimizeOpts())
	if err != nil {
		t.Fatalf("Optimize on measured profile: %v", err)
	}
	if res.Design.N < 1 {
		t.Fatalf("degenerate design %v", res.Design)
	}
}

func TestDefaultGOrders(t *testing.T) {
	cases := map[string]float64{
		"tiledmm": 1.5, "fluidanimate": 1.2, "pchase": 0.5,
		"random": 0.5, "stencil": 1, "stream": 1, "fft": 1,
	}
	for w, want := range cases {
		if got := defaultGOrder(w); got != want {
			t.Errorf("defaultGOrder(%s) = %v, want %v", w, got, want)
		}
	}
}

func TestFitOrFlatFallback(t *testing.T) {
	// Equal miss rates (working set ≫ both capacities): flat curve.
	c := fitOrFlat(8, 0.9, 32, 0.9)
	if c.Alpha != 0 {
		t.Fatalf("flat fallback alpha = %v", c.Alpha)
	}
	if c.At(1000) != 0.9 {
		t.Fatalf("flat curve At = %v", c.At(1000))
	}
	// Proper fit.
	c = fitOrFlat(8, 0.4, 32, 0.2)
	if c.Alpha <= 0 {
		t.Fatalf("fit alpha = %v", c.Alpha)
	}
	// Zero rates are floored rather than rejected.
	c = fitOrFlat(8, 0, 32, 0)
	if c.At(16) <= 0 {
		t.Fatal("zero-rate fallback broken")
	}
}
