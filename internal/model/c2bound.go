package model

import (
	"math"

	"repro/internal/chip"
	"repro/internal/core"
)

// FamilyC2Bound is the catalog name of the paper's own objective.
const FamilyC2Bound = "c2bound"

func init() {
	mustRegister(Family{
		Name: FamilyC2Bound,
		Doc:  "the paper's capacity/concurrency Eq. 10 objective with first-order issue/ROB corrections",
		New: func(cfg Config) (Model, error) {
			if err := cfg.App.Validate(); err != nil {
				return nil, err
			}
			return NewC2Bound(core.Model{Chip: cfg.Chip, App: cfg.App}), nil
		},
	})
}

// C2Bound adapts the paper's C²-Bound model (core.Model plus first-order
// issue/ROB corrections) to the family contract. It is the only
// definition of the c2bound objective and of the §IV paper grid: the
// server catalog, the CLIs, the experiments and the façade all score
// c2bound points through it (via dse.FamilyEvaluator). Its
// six-dimensional space is per-core area split (A0, A1, A2), core count
// N, issue width and ROB size.
type C2Bound struct {
	m core.Model
}

// NewC2Bound wraps a core.Model as the c2bound family, for callers that
// already hold a validated model (the registry path, New, validates the
// application profile first).
func NewC2Bound(m core.Model) *C2Bound { return &C2Bound{m: m} }

// CoreModel returns the wrapped core.Model, for consumers that need the
// analytic machinery only the paper's family carries (the area optimizer,
// the simulator-backed evaluator, the APS flow).
func (m *C2Bound) CoreModel() core.Model { return m.m }

// Fingerprint implements Model, namespacing the core fingerprint.
func (m *C2Bound) Fingerprint() string {
	return FingerprintPrefix(FamilyC2Bound) + m.m.Fingerprint()
}

// Space implements Model: the §IV paper grid, six dimensions with ten
// values each (10⁶ configurations), chosen so every combination fits the
// chip budget (the ground-truth sweep has no infeasible holes, as in the
// paper's full-space simulation).
func (m *C2Bound) Space() Space {
	cfg := m.m.Chip
	ns := []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	maxPerCore := (cfg.TotalArea - cfg.FixedArea) / ns[len(ns)-1]
	// Split the per-core budget so the A0+A1+A2 maxima sum below
	// maxPerCore.
	steps := func(max float64) []float64 {
		vals := make([]float64, 10)
		for i := range vals {
			vals[i] = max * float64(i+1) / 10
		}
		return vals
	}
	a0 := steps(0.42 * maxPerCore)
	a1 := steps(0.18 * maxPerCore)
	a2 := steps(0.38 * maxPerCore)
	return Space{Params: []Param{
		{Name: "A0", Lo: 0, Hi: a0[len(a0)-1], Grid: a0},
		{Name: "A1", Lo: 0, Hi: a1[len(a1)-1], Grid: a1},
		{Name: "A2", Lo: 0, Hi: a2[len(a2)-1], Grid: a2},
		{Name: "N", Lo: 1, Hi: ns[len(ns)-1], Grid: ns},
		{Name: "Issue", Lo: 1, Hi: 16, Grid: []float64{1, 2, 3, 4, 5, 6, 7, 8, 12, 16}},
		{Name: "ROB", Lo: 1, Hi: 256, Grid: []float64{16, 32, 48, 64, 96, 128, 160, 192, 224, 256}},
	}}
}

// Compile implements Model via core.Model.Compile, wrapping the
// fingerprint-specialized Eq. 7-10 kernel with the same issue/ROB
// corrections as the direct path.
func (m *C2Bound) Compile() (Kernel, error) {
	c, err := m.m.Compile()
	if err != nil {
		return nil, err
	}
	return c2Kernel{c: c}, nil
}

// DirectTimeWorkAt implements Direct through the uncompiled
// core.Model.Evaluate; core's own contract makes the compiled kernel
// bit-identical, and the corrections below repeat the kernel's exact
// expressions.
func (m *C2Bound) DirectTimeWorkAt(point []float64) (t, w float64, ok bool) {
	d, ok := c2Design(point)
	if !ok {
		return 0, 0, false
	}
	e, err := m.m.Evaluate(d)
	if err != nil {
		return 0, 0, false
	}
	return c2Correct(e.Time, point), e.Work, true
}

// c2Kernel is the compiled C²-Bound kernel.
type c2Kernel struct {
	c *core.Compiled
}

// c2Design decodes the six-dimensional point into the chip design.
func c2Design(point []float64) (chip.Design, bool) {
	if len(point) != 6 {
		return chip.Design{}, false
	}
	return chip.Design{
		N:        int(point[3] + 0.5),
		CoreArea: point[0],
		L1Area:   point[1],
		L2Area:   point[2],
	}, true
}

// c2Correct applies the first-order issue/ROB corrections the analytic
// model does not carry: narrow issue serializes instruction delivery; a
// small ROB caps the memory overlap the C-AMAT concurrency assumed.
func c2Correct(t float64, point []float64) float64 {
	issue, rob := point[4], point[5]
	return t * (1 + 0.6/issue) * (1 + 24/rob)
}

// TimeAt implements Kernel.
func (k c2Kernel) TimeAt(point []float64) float64 {
	t, _, ok := k.TimeWorkAt(point)
	if !ok {
		return math.Inf(1)
	}
	return t
}

// TimeWorkAt implements Kernel.
func (k c2Kernel) TimeWorkAt(point []float64) (t, w float64, ok bool) {
	d, ok := c2Design(point)
	if !ok {
		return 0, 0, false
	}
	t, w, ok = k.c.TimeWorkAt(d)
	if !ok {
		return 0, 0, false
	}
	return c2Correct(t, point), w, true
}
