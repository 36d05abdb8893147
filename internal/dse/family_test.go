package dse

import (
	"context"
	"math"
	"reflect"
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

// paperGridBits is the default-chip §IV paper grid as IEEE-754 bit
// patterns, recorded from the grid's original stand-alone definition. It
// is the reference the c2bound family's Space is held to now that the
// family is the grid's only definition.
var paperGridBits = []struct {
	name string
	bits []uint64
}{
	{"A0", []uint64{0x3fde3d70a3d70a3d, 0x3fee3d70a3d70a3d, 0x3ff6ae147ae147ae, 0x3ffe3d70a3d70a3d, 0x4002e66666666666, 0x4006ae147ae147ae, 0x400a75c28f5c28f5, 0x400e3d70a3d70a3d, 0x4011028f5c28f5c2, 0x4012e66666666666}},
	{"A1", []uint64{0x3fc9eb851eb851eb, 0x3fd9eb851eb851eb, 0x3fe370a3d70a3d70, 0x3fe9eb851eb851eb, 0x3ff0333333333333, 0x3ff370a3d70a3d70, 0x3ff6ae147ae147ae, 0x3ff9eb851eb851eb, 0x3ffd28f5c28f5c28, 0x4000333333333333}},
	{"A2", []uint64{0x3fdb5c28f5c28f5d, 0x3feb5c28f5c28f5d, 0x3ff4851eb851eb86, 0x3ffb5c28f5c28f5d, 0x400119999999999a, 0x4004851eb851eb86, 0x4007f0a3d70a3d72, 0x400b5c28f5c28f5d, 0x400ec7ae147ae148, 0x401119999999999a}},
	{"N", []uint64{0x3ff0000000000000, 0x4000000000000000, 0x4008000000000000, 0x4010000000000000, 0x4018000000000000, 0x4020000000000000, 0x4028000000000000, 0x4030000000000000, 0x4038000000000000, 0x4040000000000000}},
	{"Issue", []uint64{0x3ff0000000000000, 0x4000000000000000, 0x4008000000000000, 0x4010000000000000, 0x4014000000000000, 0x4018000000000000, 0x401c000000000000, 0x4020000000000000, 0x4028000000000000, 0x4030000000000000}},
	{"ROB", []uint64{0x4030000000000000, 0x4040000000000000, 0x4048000000000000, 0x4050000000000000, 0x4058000000000000, 0x4060000000000000, 0x4064000000000000, 0x4068000000000000, 0x406c000000000000, 0x4070000000000000}},
}

// TestSpaceForMatchesReducedSpace pins the c2bound family's space to the
// recorded paper grid bit for bit, both full (per=0) and subsampled —
// every kept value is golden[(j+1)·10/per − 1] — and ReducedSpace to the
// same subsample, so every caller sweeps the paper's designs.
func TestSpaceForMatchesReducedSpace(t *testing.T) {
	m := familyModel(t, model.FamilyC2Bound)
	for _, per := range []int{0, 1, 2, 3, 5, 10} {
		got, err := SpaceFor(m, per)
		if err != nil {
			t.Fatal(err)
		}
		if per > 0 {
			red, err := ReducedSpace(chip.DefaultConfig(), per)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(red, got) {
				t.Fatalf("per=%d: ReducedSpace %v != SpaceFor %v", per, red.Params, got.Params)
			}
		}
		if len(got.Params) != len(paperGridBits) {
			t.Fatalf("per=%d: %d dims, want %d", per, len(got.Params), len(paperGridBits))
		}
		for i, g := range paperGridBits {
			want := g.bits
			if per > 0 {
				want = make([]uint64, per)
				for j := range want {
					want[j] = g.bits[(j+1)*len(g.bits)/per-1]
				}
			}
			p := got.Params[i]
			if p.Name != g.name || len(p.Values) != len(want) {
				t.Fatalf("per=%d dim %d: %s with %d values, want %s with %d", per, i, p.Name, len(p.Values), g.name, len(want))
			}
			for j, v := range p.Values {
				if math.Float64bits(v) != want[j] {
					t.Fatalf("per=%d dim %s[%d]: %#016x, want %#016x", per, p.Name, j, math.Float64bits(v), want[j])
				}
			}
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
