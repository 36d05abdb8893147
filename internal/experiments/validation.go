package experiments

import (
	"fmt"
	"math"

	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/tablefmt"
)

// ValidationResult is the model-versus-simulator cross-check: whether the
// analytic C²-Bound objective orders design points the way the
// cycle-level simulator does — the property APS's correctness rests on.
type ValidationResult struct {
	Samples     int
	Spearman    float64 // rank correlation of analytic vs simulated time
	MeanAbsErr  float64 // MAPE after least-squares scale alignment
	BestAgree   bool    // do both rank the same design best?
	AnalyticTop int     // simulator rank of the analytic best (1 = agree)
}

// CrossValidate samples design points from the reduced space, scores each
// with both the analytic model (the c2bound family objective, with its
// issue/ROB corrections) and the full simulator, and reports rank
// agreement.
func CrossValidate(sc Scale, samples int) (*tablefmt.Table, ValidationResult, error) {
	sc.fill()
	if samples < 4 {
		samples = 24
	}
	m := fluidanimateModel()
	space, err := dse.ReducedSpace(m.Chip, 4)
	if err != nil {
		return nil, ValidationResult{}, err
	}
	simEval, err := dse.NewSimEvaluator(m.Chip, "fluidanimate", sc.WSBytes, 2, sc.TotalRefs, sc.Seed)
	if err != nil {
		return nil, ValidationResult{}, err
	}
	modelEval := dse.NewFamilyEvaluator(model.NewC2Bound(m))

	// Deterministic sample of distinct indices.
	rng := sc.Seed*0x9e3779b97f4a7c15 + 0x51ca
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	seen := map[int]bool{}
	var analytic, simulated []float64
	for len(analytic) < samples && len(seen) < space.Size() {
		idx := int(next() % uint64(space.Size()))
		if seen[idx] {
			continue
		}
		seen[idx] = true
		p := space.Point(idx)
		av := modelEval.Evaluate(p)
		sv := simEval.Evaluate(p)
		if math.IsInf(av, 1) || math.IsInf(sv, 1) {
			continue
		}
		analytic = append(analytic, av)
		simulated = append(simulated, sv)
	}
	if len(analytic) < 4 {
		return nil, ValidationResult{}, fmt.Errorf("experiments: only %d feasible validation samples", len(analytic))
	}

	rho, err := stats.Spearman(analytic, simulated)
	if err != nil {
		return nil, ValidationResult{}, err
	}
	// Scale-aligned MAPE: analytic units are arbitrary, so align by the
	// ratio of means before comparing magnitudes.
	scale := stats.Mean(simulated) / stats.Mean(analytic)
	scaled := make([]float64, len(analytic))
	for i, v := range analytic {
		scaled[i] = v * scale
	}
	mape, err := stats.MAPE(scaled, simulated)
	if err != nil {
		return nil, ValidationResult{}, err
	}
	bestA := stats.ArgMin(analytic)
	bestS := stats.ArgMin(simulated)
	// Simulator rank of the analytic best.
	rank := 1
	for _, v := range simulated {
		if v < simulated[bestA] {
			rank++
		}
	}
	res := ValidationResult{
		Samples:     len(analytic),
		Spearman:    rho,
		MeanAbsErr:  mape,
		BestAgree:   bestA == bestS,
		AnalyticTop: rank,
	}
	tb := tablefmt.New("Model vs simulator cross-validation (fluidanimate)",
		"quantity", "value")
	tb.AddRow("samples", tablefmt.Int(res.Samples))
	tb.AddRow("Spearman rank correlation", tablefmt.Float(res.Spearman))
	tb.AddRow("scale-aligned MAPE", tablefmt.Float(res.MeanAbsErr))
	tb.AddRow("simulator rank of analytic best", tablefmt.Int(res.AnalyticTop))
	return tb, res, nil
}
