package model

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
)

func testConfig() Config {
	return Config{Chip: chip.DefaultConfig(), App: core.TMMApp()}
}

func TestRegistryBuiltins(t *testing.T) {
	names := Names()
	for _, want := range []string{FamilyC2Bound, FamilyCommSync, FamilyGPU, FamilySqrtM} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("family %q not registered (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestRegistryValidation(t *testing.T) {
	if _, err := New("nope", testConfig()); err == nil {
		t.Fatal("unknown family accepted")
	}
	cfg := testConfig()
	cfg.Params = map[string]float64{"m_fma": 1.5}
	if _, err := New(FamilyGPU, cfg); err == nil {
		t.Fatal("out-of-domain family parameter accepted")
	}
	cfg.Params = map[string]float64{"bogus": 0.5}
	if _, err := New(FamilyGPU, cfg); err == nil {
		t.Fatal("unknown family parameter accepted")
	}
	cfg.Params = map[string]float64{"m_fma": math.NaN()}
	if _, err := New(FamilyGPU, cfg); err == nil {
		t.Fatal("NaN family parameter accepted")
	}
	if err := Register(Family{Name: FamilyGPU, New: func(Config) (Model, error) { return nil, nil }}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register(Family{Name: "x"}); err == nil {
		t.Fatal("nil constructor accepted")
	}
	if err := Register(Family{
		Name:   "x",
		New:    func(Config) (Model, error) { return nil, nil },
		Params: []FamilyParam{{Name: "p", Lo: 0, Hi: 1, Default: 2}},
	}); err == nil {
		t.Fatal("default outside domain accepted")
	}
}

func TestRegistryDefaults(t *testing.T) {
	m, err := New(FamilyGPU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := m.(*GPU)
	if g.MFMA != 0.5 || g.FFP32 != 0.3 || g.LaneArea != 0.05 || g.SMArea != 2 {
		t.Fatalf("defaults not applied: %+v", g)
	}
}

func TestFingerprintNamespacing(t *testing.T) {
	cfg := testConfig()
	for _, name := range Names() {
		m, err := New(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prefix := FingerprintPrefix(name)
		if !strings.HasPrefix(m.Fingerprint(), prefix) {
			t.Fatalf("%s fingerprint %q lacks prefix %q", name, m.Fingerprint(), prefix)
		}
		// No other family's prefix may match either.
		for _, other := range Names() {
			if other != name && strings.HasPrefix(m.Fingerprint(), FingerprintPrefix(other)) {
				t.Fatalf("%s fingerprint carries %s's prefix", name, other)
			}
		}
	}
	// The registry enforces the namespace on foreign constructors too.
	if err := Register(Family{Name: "badfp", New: func(cfg Config) (Model, error) {
		m, err := New(FamilyGPU, cfg)
		return m, err
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := New("badfp", cfg); err == nil || !strings.Contains(err.Error(), "namespace") {
		t.Fatalf("foreign fingerprint accepted: %v", err)
	}
}

// guardCrossingDims extends each dimension's declared grid with
// out-of-domain and boundary extras, so a product over them crosses
// every feasibility guard (area limits, positivity, unit intervals).
func guardCrossingDims(s Space) [][]float64 {
	dims := make([][]float64, len(s.Params))
	for i, p := range s.Params {
		dims[i] = append(slices.Clone(p.Grid), p.Lo, p.Hi, p.Lo-1, p.Hi*2, 0, -1)
	}
	return dims
}

// cartesian is the product of dims in a sweep's row-major order: the
// last dimension steps fastest.
func cartesian(dims [][]float64) [][]float64 {
	points := [][]float64{nil}
	for _, d := range dims {
		next := make([][]float64, 0, len(points)*len(d))
		for _, p := range points {
			for _, v := range d {
				next = append(next, append(slices.Clip(p), v))
			}
		}
		points = next
	}
	return points
}

// TestCompiledMatchesDirectBitIdentical is the per-family differential
// suite: the compiled kernel must produce bit-identical results to the
// family's direct evaluation over a guard-crossing grid (the family
// contract every consumer relies on).
func TestCompiledMatchesDirectBitIdentical(t *testing.T) {
	cfg := testConfig()
	for _, name := range []string{FamilyC2Bound, FamilyCommSync, FamilyGPU, FamilySqrtM} {
		t.Run(name, func(t *testing.T) {
			m, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			direct, ok := m.(Direct)
			if !ok {
				t.Fatalf("family %s does not implement Direct", name)
			}
			k, err := m.Compile()
			if err != nil {
				t.Fatal(err)
			}
			var points [][]float64
			if name == FamilyC2Bound {
				// Six extended dims would be a ~16.7M-point cartesian
				// product; stride-sample it deterministically instead.
				points = guardCrossingGridSampled(m.Space(), 4000)
			} else {
				points = cartesian(guardCrossingDims(m.Space()))
			}
			feasible, infeasible := 0, 0
			for _, p := range points {
				dt, dw, dok := direct.DirectTimeWorkAt(p)
				kt, kw, kok := k.TimeWorkAt(p)
				if dok != kok {
					t.Fatalf("%s: feasibility diverges at %v: direct=%v kernel=%v", name, p, dok, kok)
				}
				if !dok {
					infeasible++
					if !math.IsInf(k.TimeAt(p), 1) {
						t.Fatalf("%s: TimeAt at infeasible %v = %v, want +Inf", name, p, k.TimeAt(p))
					}
					continue
				}
				feasible++
				if math.Float64bits(dt) != math.Float64bits(kt) {
					t.Fatalf("%s: time diverges at %v: direct=%x kernel=%x", name, p, math.Float64bits(dt), math.Float64bits(kt))
				}
				if math.Float64bits(dw) != math.Float64bits(kw) {
					t.Fatalf("%s: work diverges at %v: direct=%x kernel=%x", name, p, math.Float64bits(dw), math.Float64bits(kw))
				}
				if math.Float64bits(k.TimeAt(p)) != math.Float64bits(kt) {
					t.Fatalf("%s: TimeAt and TimeWorkAt disagree at %v", name, p)
				}
			}
			if feasible == 0 {
				t.Fatalf("%s: guard-crossing grid hit no feasible points", name)
			}
			if infeasible == 0 {
				t.Fatalf("%s: guard-crossing grid crossed no guards", name)
			}
		})
	}
}

// guardCrossingGridSampled walks the product of guardCrossingDims with
// a deterministic stride so at most maxN points come back (needed for
// the six-dimensional c2bound family).
func guardCrossingGridSampled(s Space, maxN int) [][]float64 {
	dims := guardCrossingDims(s)
	total := 1
	for _, d := range dims {
		total *= len(d)
	}
	stride := total/maxN + 1
	points := make([][]float64, 0, maxN)
	for idx := 0; idx < total; idx += stride {
		rem := idx
		p := make([]float64, len(dims))
		for i := len(dims) - 1; i >= 0; i-- {
			p[i] = dims[i][rem%len(dims[i])]
			rem /= len(dims[i])
		}
		points = append(points, p)
	}
	return points
}

func TestSpaceCheckAndGrids(t *testing.T) {
	m, err := New(FamilyGPU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := m.Space()
	if err := s.Check([]float64{1, 32, 0.5}); err != nil {
		t.Fatalf("in-domain point rejected: %v", err)
	}
	if err := s.Check([]float64{1, 32}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if err := s.Check([]float64{1, 32, 1.5}); err == nil {
		t.Fatal("out-of-domain point accepted")
	}
	full, err := s.Grids(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range full {
		if len(g) != len(s.Params[i].Grid) {
			t.Fatalf("full grid truncated: dim %d has %d values, want %d", i, len(g), len(s.Params[i].Grid))
		}
	}
	sub, err := s.Grids(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range sub {
		if len(g) != 3 {
			t.Fatalf("dim %d: %d values, want 3", i, len(g))
		}
		if g[len(g)-1] != s.Params[i].Grid[len(s.Params[i].Grid)-1] {
			t.Fatalf("dim %d: subsample dropped the largest value", i)
		}
	}
}

func TestSqrtMOptimum(t *testing.T) {
	// Ginosar's law: the best m trades fseq·√m against (1−fseq)/√m, so
	// the continuous optimum is m* = (1−fseq)/fseq. With the grid in
	// powers of two the chosen m must bracket it.
	cfg := testConfig()
	m, err := New(FamilySqrtM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fseq := cfg.App.Fseq
	mStar := (1 - fseq) / fseq
	bestM, bestT := 0.0, math.Inf(1)
	for _, mv := range m.Space().Params[0].Grid {
		if tv := k.TimeAt([]float64{mv}); tv < bestT {
			bestT, bestM = tv, mv
		}
	}
	if bestM < mStar/2 || bestM > mStar*2 {
		t.Fatalf("grid optimum m=%v too far from m*=%v", bestM, mStar)
	}
}

func TestGPUThroughputMonotonicInTheta(t *testing.T) {
	m, err := New(FamilyGPU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	k, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, theta := range []float64{0.25, 0.5, 0.75, 1} {
		tv := k.TimeAt([]float64{8, 64, theta})
		if math.IsInf(tv, 1) {
			t.Fatalf("feasible point scored +Inf at theta=%v", theta)
		}
		if tv > prev {
			t.Fatalf("time not monotone in occupancy: t(%v)=%v > %v", theta, tv, prev)
		}
		prev = tv
	}
}

func TestCommSyncPenaltiesBite(t *testing.T) {
	// With a large sync penalty the optimum core count must shrink
	// relative to the penalty-free extension (pure Amdahl on the grid).
	cfg := testConfig()
	cfg.App.Fseq = 0.05
	cfg.Params = map[string]float64{"delta_sync": 0.05, "delta_comm": 0}
	heavy, err := New(FamilyCommSync, cfg)
	if err != nil {
		t.Fatal(err)
	}
	free := testConfig()
	free.App.Fseq = 0.05
	free.Params = map[string]float64{"delta_sync": 0, "delta_comm": 0}
	light, err := New(FamilyCommSync, free)
	if err != nil {
		t.Fatal(err)
	}
	bestN := func(m Model) float64 {
		k, err := m.Compile()
		if err != nil {
			t.Fatal(err)
		}
		s := m.Space()
		a0 := s.Params[0].Grid[len(s.Params[0].Grid)/2]
		best, bestT := 0.0, math.Inf(1)
		for _, n := range s.Params[1].Grid {
			if tv := k.TimeAt([]float64{a0, n}); tv < bestT {
				bestT, best = tv, n
			}
		}
		return best
	}
	if hn, ln := bestN(heavy), bestN(light); hn >= ln {
		t.Fatalf("sync penalty did not shrink the optimum: heavy N=%v, free N=%v", hn, ln)
	}
}
