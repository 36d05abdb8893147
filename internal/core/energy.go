package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/chip"
	"repro/internal/solve"
)

// PowerModel is the §VII energy extension: a first-order CMP power model
// in the style of Cho & Melhem's "corollaries to Amdahl's law for energy".
// Active logic burns dynamic power proportional to its area; every
// powered-on transistor leaks statically; caches switch at a fraction of
// core activity.
type PowerModel struct {
	DynamicPerMM2 float64 // dynamic power per mm² of active core logic (W)
	StaticPerMM2  float64 // leakage per mm² of powered silicon (W)
	CacheActivity float64 // cache dynamic power relative to core logic (0..1)
	UncorePower   float64 // fixed NoC/MC/IO power (W)
}

// DefaultPowerModel returns constants resembling a 22 nm server part:
// ~1 W/mm² dynamic at full activity, 15% leakage, caches at 20% activity.
func DefaultPowerModel() PowerModel {
	return PowerModel{DynamicPerMM2: 1.0, StaticPerMM2: 0.15, CacheActivity: 0.2, UncorePower: 10}
}

// Validate checks the power constants.
func (p PowerModel) Validate() error {
	switch {
	case p.DynamicPerMM2 < 0 || p.StaticPerMM2 < 0 || p.UncorePower < 0:
		return fmt.Errorf("core: negative power constants %+v", p)
	case p.CacheActivity < 0 || p.CacheActivity > 1:
		return fmt.Errorf("core: cache activity %v outside [0,1]", p.CacheActivity)
	}
	return nil
}

// phasePower returns chip power with `active` of the design's N cores
// busy (the rest idle, leaking only).
func (p PowerModel) phasePower(d chip.Design, active int) float64 {
	cacheArea := d.L1Area + d.L2Area
	dynamic := float64(active) * (d.CoreArea + p.CacheActivity*cacheArea) * p.DynamicPerMM2
	static := float64(d.N) * d.PerCore() * p.StaticPerMM2
	return dynamic + static + p.UncorePower
}

// EnergyEval extends a design evaluation with power and energy terms.
type EnergyEval struct {
	Eval
	SeqPower float64 // chip power during the sequential phase (1 core active)
	ParPower float64 // chip power during the parallel phase (N cores active)
	Energy   float64 // joule-equivalent (power × normalized time)
	EDP      float64 // energy × delay
	ED2P     float64 // energy × delay²
}

// EvaluateEnergy computes the energy-extended objective of §VII: the
// sequential portion runs with one active core, the parallel portion with
// all N, and energy integrates chip power over the Eq. 10 time split.
func (m Model) EvaluateEnergy(d chip.Design, pm PowerModel) (EnergyEval, error) {
	if err := pm.Validate(); err != nil {
		return EnergyEval{}, err
	}
	e, err := m.Evaluate(d)
	if err != nil {
		return EnergyEval{}, err
	}
	out := EnergyEval{Eval: e}
	out.SeqPower = pm.phasePower(d, 1)
	out.ParPower = pm.phasePower(d, d.N)

	fseq := m.App.Fseq
	seqTime := m.App.IC0 * e.CPI * fseq
	parTime := m.App.IC0 * e.CPI * e.G * (1 - fseq) / float64(d.N)
	out.Energy = out.SeqPower*seqTime + out.ParPower*parTime
	out.EDP = out.Energy * e.Time
	out.ED2P = out.EDP * e.Time
	return out, nil
}

// EnergyObjective selects the §VII multi-objective target.
type EnergyObjective int

const (
	// MinEnergy minimizes total energy.
	MinEnergy EnergyObjective = iota
	// MinEDP minimizes the energy-delay product.
	MinEDP
	// MinED2P minimizes energy × delay².
	MinED2P
)

func (o EnergyObjective) String() string {
	switch o {
	case MinEnergy:
		return "min-energy"
	case MinEDP:
		return "min-EDP"
	case MinED2P:
		return "min-ED2P"
	}
	return "unknown"
}

// score extracts the objective value.
func (o EnergyObjective) score(e EnergyEval) float64 {
	switch o {
	case MinEnergy:
		return e.Energy
	case MinEDP:
		return e.EDP
	default:
		return e.ED2P
	}
}

// OptimizeEnergy solves the energy-extended design problem: the same
// N-scan + constrained-area-split structure as Optimize, scored by the
// chosen energy objective.
func (m Model) OptimizeEnergy(pm PowerModel, obj EnergyObjective, opts Options) (chip.Design, EnergyEval, error) {
	if err := m.App.Validate(); err != nil {
		return chip.Design{}, EnergyEval{}, err
	}
	if err := pm.Validate(); err != nil {
		return chip.Design{}, EnergyEval{}, err
	}
	opts.fill(m.Chip)

	var bestD chip.Design
	var bestE EnergyEval
	bestScore := math.Inf(1)
	found := false
	tryN := func(n int) {
		d, err := m.optimizeAreasScored(n, opts, func(d chip.Design) float64 {
			e, err := m.EvaluateEnergy(d, pm)
			if err != nil {
				return math.Inf(1)
			}
			return obj.score(e)
		})
		if err != nil {
			return
		}
		e, err := m.EvaluateEnergy(d, pm)
		if err != nil {
			return
		}
		if s := obj.score(e); s < bestScore {
			bestScore, bestD, bestE, found = s, d, e, true
		}
	}
	seen := map[int]bool{}
	for n := 1; n <= 16 && n <= opts.MaxN; n++ {
		tryN(n)
		seen[n] = true
	}
	for f := 20.0; f <= float64(opts.MaxN); f *= 1.3 {
		if n := int(f); !seen[n] {
			tryN(n)
			seen[n] = true
		}
	}
	if !seen[opts.MaxN] {
		tryN(opts.MaxN)
	}
	if !found {
		return chip.Design{}, EnergyEval{}, fmt.Errorf("core: no feasible energy design up to N=%d", opts.MaxN)
	}
	return bestD, bestE, nil
}

// ParetoPoint is one non-dominated (time, energy) design.
type ParetoPoint struct {
	Design chip.Design
	Time   float64
	Energy float64
}

// ParetoFrontier samples the design space (geometric N sweep × candidate
// area splits) and returns the time/energy Pareto-optimal set, sorted by
// increasing time. It is the multi-objective exploration interface the
// paper's conclusion sketches.
func (m Model) ParetoFrontier(pm PowerModel, opts Options) ([]ParetoPoint, error) {
	if err := m.App.Validate(); err != nil {
		return nil, err
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	opts.fill(m.Chip)
	budgetTotal := m.Chip.TotalArea - m.Chip.FixedArea

	splits := [][3]float64{
		{0.6, 0.15, 0.25}, {0.45, 0.2, 0.35}, {0.3, 0.2, 0.5}, {0.7, 0.1, 0.2}, {0.2, 0.3, 0.5},
	}
	var pts []ParetoPoint
	for n := 1; n <= opts.MaxN; n = nextN(n) {
		per := budgetTotal / float64(n)
		if per < 3*opts.MinArea {
			break
		}
		for _, w := range splits {
			d := chip.Design{N: n, CoreArea: per * w[0], L1Area: per * w[1], L2Area: per * w[2]}
			e, err := m.EvaluateEnergy(d, pm)
			if err != nil {
				continue
			}
			pts = append(pts, ParetoPoint{Design: d, Time: e.Time, Energy: e.Energy})
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: no feasible designs for the Pareto sweep")
	}
	// Extract the non-dominated set.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Time != pts[j].Time { //lint:allow floatguard exact tie-break keeps the Pareto sort deterministic
			return pts[i].Time < pts[j].Time
		}
		return pts[i].Energy < pts[j].Energy
	})
	var frontier []ParetoPoint
	bestEnergy := math.Inf(1)
	for _, p := range pts {
		if p.Energy < bestEnergy {
			frontier = append(frontier, p)
			bestEnergy = p.Energy
		}
	}
	return frontier, nil
}

func nextN(n int) int {
	step := n / 4
	if step < 1 {
		step = 1
	}
	return n + step
}

// optimizeAreasScored is OptimizeAreas with a caller-supplied score.
// Unlike the time objective — where filling the die is always at least as
// good — energy objectives may prefer *dark silicon* (unused area leaks
// nothing), so a third free variable scales how much of the per-core
// budget is actually provisioned; Eq. 12 becomes an inequality here.
func (m Model) optimizeAreasScored(n int, opts Options, score func(chip.Design) float64) (chip.Design, error) {
	budget := (m.Chip.TotalArea - m.Chip.FixedArea) / float64(n)
	if budget < 3*opts.MinArea {
		return chip.Design{}, fmt.Errorf("core: %d cores leave only %.3g mm² per core", n, budget)
	}
	design := func(u []float64) chip.Design {
		e0 := math.Exp(u[0])
		e1 := math.Exp(u[1])
		sum := e0 + e1 + 1
		// Fill factor in [0.05, 1] through a logistic map.
		fill := 0.05 + 0.95/(1+math.Exp(-u[2]))
		usable := budget*fill - 3*opts.MinArea
		if usable < 0 {
			usable = 0
		}
		return chip.Design{
			N:        n,
			CoreArea: opts.MinArea + usable*e0/sum,
			L1Area:   opts.MinArea + usable*e1/sum,
			L2Area:   opts.MinArea + usable*1/sum,
		}
	}
	objU := func(u []float64) float64 { return score(design(u)) }
	bestU, bestS := nmMinimize(objU, []float64{1, 0, 2})
	u2, s2 := nmMinimize(objU, []float64{-1, 1, 0})
	if s2 < bestS {
		bestU, bestS = u2, s2
	}
	if math.IsInf(bestS, 1) {
		return chip.Design{}, fmt.Errorf("core: no feasible split for N=%d", n)
	}
	return design(bestU), nil
}

func nmMinimize(obj func([]float64) float64, x0 []float64) ([]float64, float64) {
	return solve.NelderMead(obj, x0, solve.NelderMeadOpts{MaxIter: 300, Tol: 1e-10})
}
