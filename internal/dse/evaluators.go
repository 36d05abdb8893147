package dse

import (
	"context"
	"fmt"
	"math"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/sim/cache"
	"repro/internal/trace"
)

// Dimension names of the paper's six-parameter space, in point order.
const (
	DimA0    = "A0"
	DimA1    = "A1"
	DimA2    = "A2"
	DimN     = "N"
	DimIssue = "Issue"
	DimROB   = "ROB"
)

// ReducedSpace returns the c2bound family's §IV paper space (see
// model.C2Bound.Space) over the chip cfg, subsampled to `per` values per
// dimension (1 ≤ per ≤ 10; 10 is the full 10⁶-point grid), for tests,
// benches and CLIs where the full sweep would be too slow.
func ReducedSpace(cfg chip.Config, per int) (Space, error) {
	if per < 1 || per > 10 {
		return Space{}, fmt.Errorf("dse: reduced space needs 1..10 values per dim, got %d", per)
	}
	return SpaceFor(model.NewC2Bound(core.Model{Chip: cfg}), per)
}

// SimEvaluator scores configurations with the many-core simulator: a
// fixed-size workload (TotalRefs references) is split evenly across the
// N cores and the makespan in cycles is the score. The evaluator is
// stateless per call and therefore safe for concurrent sweeps.
type SimEvaluator struct {
	Chip      chip.Config // area budget, densities, Pollack constants
	Workload  string
	WSBytes   uint64
	MeanGap   float64
	TotalRefs int
	Seed      uint64

	// Template hardware for parts not in the design space.
	L1Template cache.Config
	L2Template cache.Config
	Base       sim.Config // DRAM and NoC taken from here
}

// NewSimEvaluator builds an evaluator with default templates.
func NewSimEvaluator(chipCfg chip.Config, workload string, wsBytes uint64, meanGap float64, totalRefs int, seed uint64) (*SimEvaluator, error) {
	if totalRefs < 1 {
		return nil, fmt.Errorf("dse: totalRefs %d below 1", totalRefs)
	}
	if _, err := trace.ByName(workload, wsBytes, meanGap, seed); err != nil {
		return nil, err
	}
	return &SimEvaluator{
		Chip:       chipCfg,
		Workload:   workload,
		WSBytes:    wsBytes,
		MeanGap:    meanGap,
		TotalRefs:  totalRefs,
		Seed:       seed,
		L1Template: cache.DefaultL1(),
		L2Template: cache.DefaultL2(),
		Base:       sim.DefaultConfig(1),
	}, nil
}

// Config translates a design point into a simulator configuration,
// returning an error for infeasible points.
func (e *SimEvaluator) Config(point []float64) (sim.Config, error) {
	if len(point) != 6 {
		return sim.Config{}, fmt.Errorf("dse: point has %d dims, want 6", len(point))
	}
	a0, a1, a2 := point[0], point[1], point[2]
	n := int(point[3] + 0.5)
	issue := int(point[4] + 0.5)
	rob := int(point[5] + 0.5)
	d := chip.Design{N: n, CoreArea: a0, L1Area: a1, L2Area: a2}
	if err := e.Chip.CheckFeasible(d); err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(n)
	cfg.DRAM = e.Base.DRAM
	cfg.NoC = e.Base.NoC
	cfg.NoC.Nodes = n
	cfg.L1 = e.L1Template
	cfg.L1.SizeKB = clampKB(e.Chip.L1SizeKB(d))
	cfg.L2 = e.L2Template
	cfg.L2.SizeKB = clampKB(e.Chip.L2SizeKB(d) * float64(n)) // shared L2 = N slices
	cfg.Core = e.Base.Core
	cfg.Core.IssueWidth = issue
	cfg.Core.ROB = rob
	cfg.Core.ComputeCPI = e.Chip.Pollack.CPIExe(a0)
	return cfg, nil
}

func clampKB(kb float64) int {
	v := int(kb + 0.5)
	if v < 1 {
		return 1
	}
	return v
}

// Evaluate implements Evaluator: the simulated makespan in cycles, +Inf
// for infeasible configurations, or NaN when the simulator faulted.
// Infeasible and faulted are distinct outcomes on purpose: +Inf is a
// legitimate score ("this design does not fit"), while NaN marks a
// swallowed error, which Best skips so a faulty run can never be selected
// as the optimum.
func (e *SimEvaluator) Evaluate(point []float64) float64 {
	//lint:allow ctxflow the plain Evaluator interface carries no context by contract
	v, err := e.EvaluateCtx(context.Background(), point)
	if err != nil {
		return math.NaN()
	}
	return v
}

// Fingerprint implements engine.Fingerprinter: it covers every field the
// simulated score depends on (chip constants, workload, working set,
// reference budget, seed and the hardware templates), so two evaluators
// share memoized values only when they compute the same function.
func (e *SimEvaluator) Fingerprint() string {
	return fmt.Sprintf("dse.SimEvaluator{chip=%+v workload=%q ws=%d gap=%x refs=%d seed=%d l1=%+v l2=%+v base=%+v}",
		e.Chip, e.Workload, e.WSBytes, e.MeanGap, e.TotalRefs, e.Seed,
		e.L1Template, e.L2Template, e.Base)
}

// SplitRefs distributes total references across cores with no remainder
// loss: every core receives total/cores, and the first total%cores cores
// one extra, so the summed workload is invariant in the core count (a
// truncating division here would shrink the simulated work as N grows and
// bias cross-N comparisons).
func SplitRefs(total, cores int) []int {
	refs := make([]int, cores)
	if cores < 1 || total < 0 {
		return refs
	}
	base, rem := total/cores, total%cores
	for i := range refs {
		refs[i] = base
		if i < rem {
			refs[i]++
		}
	}
	return refs
}

// EvaluateCtx implements CtxEvaluator. Infeasible configurations score
// +Inf with a nil error (a legitimate result, not a fault); simulator
// failures and cancellation surface as errors so the resilient sweep can
// retry or abort.
func (e *SimEvaluator) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	cfg, err := e.Config(point)
	if err != nil {
		return math.Inf(1), nil
	}
	res, err := sim.RunWorkloadCountsCtx(ctx, cfg, e.Workload, e.WSBytes, e.MeanGap, SplitRefs(e.TotalRefs, cfg.Cores), e.Seed)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return math.NaN(), cerr
		}
		return math.NaN(), err
	}
	return float64(res.Cycles), nil
}
