package dse

import (
	"context"
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/robust"
)

func familyModel(t *testing.T, name string) model.Model {
	t.Helper()
	m, err := model.New(name, model.Config{Chip: chip.DefaultConfig(), App: core.TMMApp()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSpaceForMatchesReducedSpace pins the compatibility contract: the
// family-generic space of the c2bound family equals the paper-space
// helpers exactly, both full (PaperSpace) and subsampled (ReducedSpace),
// so old and new callers sweep identical designs.
func TestSpaceForMatchesReducedSpace(t *testing.T) {
	m := familyModel(t, model.FamilyC2Bound)
	for _, per := range []int{0, 1, 2, 3, 5, 10} {
		got, err := SpaceFor(m, per)
		if err != nil {
			t.Fatal(err)
		}
		var want Space
		if per == 0 {
			want, err = PaperSpace(chip.DefaultConfig())
		} else {
			want, err = ReducedSpace(chip.DefaultConfig(), per)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Params) != len(want.Params) {
			t.Fatalf("per=%d: %d dims, want %d", per, len(got.Params), len(want.Params))
		}
		for i := range got.Params {
			if got.Params[i].Name != want.Params[i].Name {
				t.Fatalf("per=%d dim %d: name %q, want %q", per, i, got.Params[i].Name, want.Params[i].Name)
			}
			if len(got.Params[i].Values) != len(want.Params[i].Values) {
				t.Fatalf("per=%d dim %s: %d values, want %d", per, got.Params[i].Name, len(got.Params[i].Values), len(want.Params[i].Values))
			}
			for j := range got.Params[i].Values {
				if math.Float64bits(got.Params[i].Values[j]) != math.Float64bits(want.Params[i].Values[j]) {
					t.Fatalf("per=%d dim %s[%d]: %v, want %v", per, got.Params[i].Name, j, got.Params[i].Values[j], want.Params[i].Values[j])
				}
			}
		}
	}
}

// TestFamilyEvaluatorMatchesModelEvaluator pins the c2bound family to
// the original catalog evaluator bit-for-bit over a reduced space.
func TestFamilyEvaluatorMatchesModelEvaluator(t *testing.T) {
	m := familyModel(t, model.FamilyC2Bound)
	fam := NewFamilyEvaluator(m)
	old := &ModelEvaluator{Model: core.Model{Chip: chip.DefaultConfig(), App: core.TMMApp()}}
	s, err := ReducedSpace(chip.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < s.Size(); idx++ {
		p := s.Point(idx)
		got := fam.Evaluate(p)
		want := old.Evaluate(p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("point %v: family=%x model=%x", p, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestFamilyBatchMatchesScalar is the per-family engine differential:
// the engine's batched path (compiled kernel, chunked dispatch) must be
// bit-identical to the family's scalar EvaluateCtx for every family.
func TestFamilyBatchMatchesScalar(t *testing.T) {
	for _, name := range model.Names() {
		t.Run(name, func(t *testing.T) {
			m := familyModel(t, name)
			s, err := SpaceFor(m, 4)
			if err != nil {
				t.Fatal(err)
			}
			points := make([][]float64, s.Size())
			for i := range points {
				points[i] = s.Point(i)
			}
			ctx := context.Background()
			batched := make([]float64, len(points))
			eng := engine.New(engine.Options{Workers: 4})
			if err := eng.EvaluateBatch(ctx, NewFamilyEvaluator(m), points, batched); err != nil {
				t.Fatal(err)
			}
			oracle := NewFamilyEvaluator(m)
			for i, p := range points {
				scalar, err := oracle.EvaluateCtx(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(batched[i]) != math.Float64bits(scalar) {
					t.Fatalf("%s point %v: batched=%x scalar=%x", name, p, math.Float64bits(batched[i]), math.Float64bits(scalar))
				}
			}
		})
	}
}

// TestFamilyWarmHitZeroAlloc asserts the warm memo probe stays
// allocation-free when the evaluator is a family model.
func TestFamilyWarmHitZeroAlloc(t *testing.T) {
	m := familyModel(t, model.FamilyGPU)
	eng := engine.New(engine.Options{Workers: 1})
	// Box the evaluator once; a per-call conversion would charge the
	// caller an allocation the engine is not making.
	var ev robust.Evaluator = NewFamilyEvaluator(m)
	point := []float64{8, 64, 0.5}
	ctx := context.Background()
	if _, err := eng.Evaluate(ctx, ev, point); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		o := eng.Do(ctx, ev, point)
		if !o.CacheHit {
			t.Fatal("expected a warm hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm family hit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFamilyCacheIsolation proves two families with identical parameter
// points never share memo entries: the fingerprint namespace forces two
// raw evaluations and two cache entries even for byte-identical points.
func TestFamilyCacheIsolation(t *testing.T) {
	// Two throwaway families whose spaces coincide on the same 1-dim
	// point but whose objectives differ.
	mkFamily := func(name string, scale float64) model.Model {
		return isoModel{name: name, scale: scale}
	}
	a, b := mkFamily("iso-a", 2), mkFamily("iso-b", 3)
	eng := engine.New(engine.Options{Workers: 1})
	ctx := context.Background()
	point := []float64{4}

	va, err := eng.Evaluate(ctx, NewFamilyEvaluator(a), point)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := eng.Evaluate(ctx, NewFamilyEvaluator(b), point)
	if err != nil {
		t.Fatal(err)
	}
	if va == vb {
		t.Fatalf("objectives coincide (%v); the test needs distinguishable families", va)
	}
	st := eng.Stats()
	if st.Evaluations != 2 {
		t.Fatalf("identical points across families shared an evaluation: %d raw evals, want 2", st.Evaluations)
	}
	if st.CacheHits != 0 {
		t.Fatalf("cross-family cache hit: %d", st.CacheHits)
	}
	// Same family, same point: now it must hit.
	if _, err := eng.Evaluate(ctx, NewFamilyEvaluator(a), point); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.CacheHits != 1 || st.Evaluations != 2 {
		t.Fatalf("same-family re-evaluation missed the cache: %+v", st)
	}

	// The real families' fingerprints are pairwise distinct for one
	// config, too.
	seen := map[string]string{}
	for _, name := range model.Names() {
		fp := familyModel(t, name).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("families %s and %s share fingerprint %q", prev, name, fp)
		}
		seen[fp] = name
	}
}

// isoModel is a minimal synthetic family for the isolation test. Both
// instances evaluate t = scale·x over the same 1-dim space.
type isoModel struct {
	name  string
	scale float64
}

func (m isoModel) Fingerprint() string {
	return model.FingerprintPrefix(m.name) + "iso"
}

func (m isoModel) Space() model.Space {
	return model.Space{Params: []model.Param{{Name: "X", Lo: 0, Hi: 10, Grid: []float64{1, 2, 4}}}}
}

func (m isoModel) Compile() (model.Kernel, error) { return isoKernel(m), nil }

type isoKernel isoModel

func (k isoKernel) TimeAt(p []float64) float64 { return k.scale * p[0] }
func (k isoKernel) TimeWorkAt(p []float64) (float64, float64, bool) {
	return k.scale * p[0], 1, true
}
