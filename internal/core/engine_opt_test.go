package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
)

// TestOptimizeAreasWithEngineBitIdentical pins the refactor's invariant:
// routing the optimizer's objective probes through a memoizing engine
// changes the cost, never the answer.
func TestOptimizeAreasWithEngineBitIdentical(t *testing.T) {
	m := testModel(FluidanimateApp())
	dPlain, evalsPlain, err := m.OptimizeAreas(16, Options{})
	if err != nil {
		t.Fatalf("direct OptimizeAreas: %v", err)
	}
	eng := engine.New(engine.Options{})
	dRouted, evalsRouted, err := m.OptimizeAreas(16, Options{Engine: eng})
	if err != nil {
		t.Fatalf("engine OptimizeAreas: %v", err)
	}
	if evalsPlain != evalsRouted {
		t.Fatalf("probe counts diverged: %d vs %d", evalsPlain, evalsRouted)
	}
	for name, pair := range map[string][2]float64{
		"core area": {dPlain.CoreArea, dRouted.CoreArea},
		"l1 area":   {dPlain.L1Area, dRouted.L1Area},
		"l2 area":   {dPlain.L2Area, dRouted.L2Area},
		"time":      {m.TimeAt(dPlain), m.TimeAt(dRouted)},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("%s diverged under the engine: %x vs %x", name, pair[0], pair[1])
		}
	}

	// The optimizer's repeated probes of shared vertices must land in the
	// cache, and every request must be metered.
	st := eng.Stats()
	if st.Requests == 0 || st.Evaluations == 0 {
		t.Fatalf("engine not exercised: %+v", st)
	}
	if st.CacheHits == 0 {
		t.Fatalf("no probe memoization: %+v", st)
	}
	if st.Requests != st.CacheHits+st.CacheMisses {
		t.Fatalf("request accounting inconsistent: %+v", st)
	}
}

// TestOptimizeCtxEngineMatchesPlain checks the full N-search with and
// without an engine end to end.
func TestOptimizeCtxEngineMatchesPlain(t *testing.T) {
	m := testModel(StencilApp())
	plain, err := m.OptimizeCtx(context.Background(), Options{MaxN: 64})
	if err != nil {
		t.Fatalf("plain OptimizeCtx: %v", err)
	}
	routed, err := m.OptimizeCtx(context.Background(), Options{MaxN: 64, Engine: engine.New(engine.Options{})})
	if err != nil {
		t.Fatalf("engine OptimizeCtx: %v", err)
	}
	if plain.Design != routed.Design {
		t.Fatalf("designs diverged: %+v vs %+v", plain.Design, routed.Design)
	}
	if math.Float64bits(plain.Eval.Time) != math.Float64bits(routed.Eval.Time) {
		t.Fatalf("times diverged: %x vs %x", plain.Eval.Time, routed.Eval.Time)
	}
	if plain.Evaluations != routed.Evaluations {
		t.Fatalf("request counts diverged: %d vs %d", plain.Evaluations, routed.Evaluations)
	}
	if plain.Method != routed.Method {
		t.Fatalf("methods diverged: %q vs %q", plain.Method, routed.Method)
	}
}
