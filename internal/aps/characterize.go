package aps

import (
	"context"
	"fmt"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/speedup"
)

// CharacterizeOptions configures the measurement runs of the APS
// characterization step (Fig. 6, lines 1-3).
type CharacterizeOptions struct {
	Workload string
	WSBytes  uint64
	MeanGap  float64
	Refs     int // references per probe run
	Seed     uint64
	Cores    int // probe machine size (default 4)

	// Fseq cannot be observed from single-program traces; it comes from
	// the application's parallel structure (development manual or
	// compiler, per §III-D). Defaults to 0.05.
	Fseq float64
	// GOrder sets the workload's g(N) growth order; when zero it is
	// looked up from the workload name via Table I (tiledmm → 1.5,
	// stencil/fft → 1, everything else → 1).
	GOrder float64
}

// CharacterizeCtx measures an application profile on the simulated
// machine, exactly as the paper's tool chain does with the Fig. 4
// detector: one probe run collects fmem, C_H, C_M, pMR/MR and pAMP/AMP
// from the C-AMAT analyzer, and two further runs at different cache
// capacities fit the miss-rate-versus-capacity power law for each
// level. The context's deadline propagates into each probe simulation,
// and a context-carried tracer records an aps.characterize span with
// one aps.probe child per measurement run.
func CharacterizeCtx(ctx context.Context, opts CharacterizeOptions) (core.App, error) {
	if opts.Workload == "" {
		return core.App{}, fmt.Errorf("aps: characterize needs a workload")
	}
	if opts.WSBytes == 0 {
		opts.WSBytes = 8 << 20
	}
	if opts.Refs <= 0 {
		opts.Refs = 20000
	}
	if opts.Cores <= 0 {
		opts.Cores = 4
	}
	if opts.Fseq == 0 { //lint:allow floatguard exact zero is the unset-field sentinel
		opts.Fseq = 0.05
	}
	if opts.MeanGap <= 0 {
		opts.MeanGap = 2
	}

	tr := obs.TracerFrom(ctx)
	ctx, charSp := tr.Start(ctx, "aps.characterize", obs.S("workload", opts.Workload))
	defer charSp.Finish()

	run := func(l1KB, l2KB int) (*sim.Result, error) {
		cfg := sim.DefaultConfig(opts.Cores)
		cfg.L1.SizeKB = l1KB
		cfg.L2.SizeKB = l2KB
		probeCtx, probeSp := tr.Start(ctx, "aps.probe",
			obs.I("l1_kb", int64(l1KB)), obs.I("l2_kb", int64(l2KB)))
		res, err := sim.RunWorkloadCtx(probeCtx, cfg, opts.Workload, opts.WSBytes, opts.MeanGap, opts.Refs, opts.Seed)
		if err != nil {
			probeSp.Annotate(obs.S("error", err.Error()))
		}
		probeSp.Finish()
		return res, err
	}

	// Probe 1: reference configuration; source of the concurrency and
	// frequency parameters.
	base, err := run(32, 2048)
	if err != nil {
		return core.App{}, fmt.Errorf("aps: characterization probe: %w", err)
	}
	p := base.L1Params
	app := core.App{
		Name: opts.Workload,
		Fseq: opts.Fseq,
		Fmem: float64(base.MemAccesses) / float64(base.Instructions),
		// The detector cannot see compute overlap; a conservative zero
		// keeps the model pessimistic.
		Overlap: 0,
		CH:      maxf(1, p.CH),
		CM:      maxf(1, p.CM),
		IC0:     float64(base.Instructions),
	}
	if p.MR > 0 {
		app.PMRRatio = clamp01(p.PMR / p.MR)
	} else {
		app.PMRRatio = 1
	}
	if p.AMP > 0 {
		app.PAMPRatio = p.PAMP / p.AMP
	} else {
		app.PAMPRatio = 1
	}

	// Probes 2-3: refit the capacity curves. L1 at 8 KB vs the base
	// 32 KB; L2 at 256 KB vs the base 2 MB.
	smallL1, err := run(8, 2048)
	if err != nil {
		return core.App{}, fmt.Errorf("aps: L1 capacity probe: %w", err)
	}
	smallL2, err := run(32, 256)
	if err != nil {
		return core.App{}, fmt.Errorf("aps: L2 capacity probe: %w", err)
	}
	app.L1Miss = fitOrFlat(8, smallL1.L1Params.MR, 32, base.L1Params.MR)
	app.L2Miss = fitOrFlat(256, smallL2.L2Stats.MissRate(), 2048, base.L2Stats.MissRate())

	order := opts.GOrder
	if order == 0 { //lint:allow floatguard exact zero is the unset-field sentinel
		order = defaultGOrder(opts.Workload)
	}
	app.G = speedup.PowerLaw(order)
	app.GOrder = order

	if err := app.Validate(); err != nil {
		return core.App{}, fmt.Errorf("aps: characterized profile invalid: %w", err)
	}
	return app, nil
}

// fitOrFlat fits the power-law curve through two measured points, falling
// back to a flat curve at the base measurement when the fit is degenerate
// (equal or non-monotone miss rates, e.g. a working set far larger than
// both capacities).
func fitOrFlat(size1 float64, mr1 float64, size2 float64, mr2 float64) chip.MissRateCurve {
	if mr1 <= 0 {
		mr1 = 1e-4
	}
	if mr2 <= 0 {
		mr2 = 1e-4
	}
	curve, err := chip.FitMissRate(size1, mr1, size2, mr2)
	if err != nil {
		return chip.MissRateCurve{Base: mr2, RefKB: size2, Alpha: 0, Floor: 0}
	}
	curve.Floor = mr2 / 50
	return curve
}

// defaultGOrder maps workload names onto their Table I scaling orders.
func defaultGOrder(workload string) float64 {
	switch workload {
	case "tiledmm":
		return 1.5
	case "fluidanimate":
		return 1.2
	case "pchase", "random":
		return 0.5
	default: // stencil, stream, fft: linear-class workloads
		return 1
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
