// Command c2bound solves the C²-Bound analytic optimization for an
// application profile on a chip budget and prints the recommended design:
// core count, silicon split, and the model's view of the memory system at
// the optimum.
//
// Usage:
//
//	c2bound [-app fluidanimate|tmm|stencil|fft] [-area mm2] [-fseq f]
//	        [-fmem f] [-conc C] [-gorder b] [-maxn n] [-timeout d]
//	        [-sweep per] [-checkpoint file] [-resume]
//	        [-workers n] [-cache n] [-trace out.json] [-metrics]
//	        [-cpuprofile out.pprof]
//
// Observability: -trace writes a Chrome trace_event JSON of the run's
// span hierarchy, -metrics prints the metrics registry snapshot on exit,
// and -cpuprofile records a pprof CPU profile.
//
// Flags override the preset profile's fields, so one command answers
// "what if this application had concurrency 8?" style questions.
//
// With -sweep the command additionally brute-forces the per-values-per-
// dimension reduced design space with the analytic evaluator; -checkpoint
// and -resume make that sweep restartable, and -timeout bounds the whole
// run (a timed-out sweep saves its partial state before exiting).
//
// The optimizer and the sweep share one evaluation engine: objective
// probes and sweep points are memoized together. -workers bounds the
// engine's parallelism, -cache its memo capacity (0 = default, negative =
// disable); an engine statistics line is printed on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	c2bound "repro"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/obs"
)

func main() {
	appName := flag.String("app", "fluidanimate", "application preset: fluidanimate, tmm, stencil, fft")
	area := flag.Float64("area", 0, "total chip area in mm² (0: default 400)")
	fseq := flag.Float64("fseq", -1, "sequential fraction override")
	fmem := flag.Float64("fmem", -1, "memory access frequency override")
	conc := flag.Float64("conc", 0, "pin the data-access concurrency C (C_H = C_M = C)")
	gorder := flag.Float64("gorder", -1, "g(N) = N^b growth exponent override")
	maxn := flag.Int("maxn", 0, "largest core count to consider")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	sweepPer := flag.Int("sweep", 0, "also sweep the reduced space with this many values per dimension")
	checkpoint := flag.String("checkpoint", "", "save sweep state to this JSON file")
	resume := flag.Bool("resume", false, "skip points already recorded in -checkpoint")
	workers := flag.Int("workers", 0, "evaluation parallelism (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0, "engine memo-cache capacity (0 = default, negative = disable)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	metricsOut := flag.Bool("metrics", false, "print the metrics registry snapshot on exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var tracer *c2bound.Tracer
	if *traceOut != "" {
		tracer = c2bound.NewTracer(0)
		ctx = obs.ContextWithTracer(ctx, tracer)
		defer func() {
			if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
				log.Printf("trace: %v", err)
				return
			}
			fmt.Printf("trace: %d spans written to %s (%d dropped)\n",
				tracer.Len(), *traceOut, tracer.Dropped())
		}()
	}
	var metrics *c2bound.Metrics
	if *metricsOut {
		metrics = c2bound.NewMetrics()
		ctx = obs.ContextWithMetrics(ctx, metrics)
		defer func() {
			fmt.Println("\nmetrics:")
			if err := metrics.WriteText(os.Stdout); err != nil {
				log.Printf("metrics: %v", err)
			}
		}()
	}
	if *cpuProfile != "" {
		stopProf, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer func() {
			if err := stopProf(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *resume && *checkpoint == "" {
		log.Fatal("-resume requires -checkpoint")
	}

	var app c2bound.App
	switch *appName {
	case "fluidanimate":
		app = c2bound.FluidanimateApp()
	case "tmm":
		app = c2bound.TMMApp()
	case "stencil":
		app = c2bound.StencilApp()
	case "fft":
		app = c2bound.FFTApp()
	default:
		fmt.Fprintf(os.Stderr, "unknown application %q\n", *appName)
		flag.Usage()
		os.Exit(2)
	}
	if *fseq >= 0 {
		app.Fseq = *fseq
	}
	if *fmem >= 0 {
		app.Fmem = *fmem
	}
	if *conc >= 1 {
		app = app.WithConcurrency(*conc)
	}
	if *gorder >= 0 {
		app.G = c2bound.PowerLaw(*gorder)
		app.GOrder = *gorder
	}

	cfg := c2bound.DefaultChip()
	if *area > 0 {
		cfg.TotalArea = *area
	}

	// One engine serves the optimizer and the optional sweep: objective
	// probes and sweep points share its memo cache and worker pool.
	eng := c2bound.NewEngine(c2bound.EngineOptions{
		Workers: *workers, CacheSize: *cacheSize, Tracer: tracer, Metrics: metrics,
	})
	defer func() { fmt.Println(eng.Stats()) }()

	m := c2bound.Model{Chip: cfg, App: app}
	res, err := c2bound.Optimize(ctx, m,
		c2bound.WithEngine(eng),
		c2bound.WithTracer(tracer),
		c2bound.WithMetrics(metrics),
		c2bound.WithOptimize(c2bound.OptimizeOptions{MaxN: *maxn}))
	if err != nil {
		log.Fatalf("optimize: %v", err)
	}

	fmt.Printf("application       : %s (fseq=%.3g fmem=%.3g C_H=%.3g C_M=%.3g g~N^%.3g)\n",
		app.Name, app.Fseq, app.Fmem, app.CH, app.CM, app.GOrder)
	fmt.Printf("chip budget       : %.4g mm² (%.4g mm² fixed)\n", cfg.TotalArea, cfg.FixedArea)
	fmt.Printf("regime            : %v\n", res.Regime)
	fmt.Printf("optimal design    : %v\n", res.Design)
	fmt.Printf("  per-core caches : L1 %.4g KB, L2 slice %.4g KB\n",
		cfg.L1SizeKB(res.Design), cfg.L2SizeKB(res.Design))
	fmt.Printf("  on-chip capacity: %.4g MB\n", cfg.OnChipCapacityKB(res.Design)/1024)
	fmt.Printf("model at optimum  : CPI_exe=%.3f C-AMAT=%.3f (C=%.2f) CPI=%.3f\n",
		res.Eval.CPIExe, res.Eval.CAMAT, res.Eval.C, res.Eval.CPI)
	fmt.Printf("  L1 MR=%.4f  L2 MR=%.4f  loaded mem latency=%.1f cycles (ρ=%.2f)\n",
		res.Eval.L1MR, res.Eval.L2MR, res.Eval.MemLat, res.Eval.Rho)
	fmt.Printf("objective         : T=%.6g, W=%.6g, W/T=%.6g\n",
		res.Eval.Time, res.Eval.Work, res.Eval.Throughput)
	fmt.Printf("solver            : %s after %d objective evaluations\n", res.Method, res.Evaluations)

	if *sweepPer > 0 {
		runSweep(ctx, m, cfg, eng, *sweepPer, *checkpoint, *resume)
	}
}

// runSweep brute-forces the reduced design space with the analytic
// evaluator, optionally checkpointing so an interrupted run can resume.
func runSweep(ctx context.Context, m c2bound.Model, cfg c2bound.ChipConfig, eng *c2bound.Engine, per int, checkpoint string, resume bool) {
	space, err := dse.ReducedSpace(cfg, per)
	if err != nil {
		log.Fatalf("sweep space: %v", err)
	}
	fmt.Printf("\nsweeping %d analytic design points...\n", space.Size())
	start := time.Now()
	values, rep, err := dse.SweepCtx(ctx, dse.NewFamilyEvaluator(model.NewC2Bound(m)), space, nil, dse.SweepOptions{
		Engine:         eng,
		CheckpointPath: checkpoint,
		Resume:         resume,
	})
	fmt.Printf("sweep: %d/%d evaluated (%d resumed, %d from cache, %d retries, %d failed, %d pending) in %v\n",
		len(rep.Completed), rep.Total, rep.Resumed, rep.CacheHits, rep.Retries, len(rep.Failed), len(rep.Pending),
		time.Since(start).Round(time.Millisecond))
	if err != nil {
		if checkpoint != "" {
			fmt.Printf("sweep interrupted; rerun with -resume to continue\n")
		}
		log.Fatalf("sweep: %v", err)
	}
	idx, best := dse.Best(values)
	if idx < 0 {
		log.Fatal("sweep: no feasible design point")
	}
	p := space.Point(idx)
	fmt.Printf("sweep optimum     : A0=%.3g A1=%.3g A2=%.3g mm², N=%.0f cores, issue=%g, ROB=%.0f (T=%.6g)\n",
		p[0], p[1], p[2], p[3], p[4], p[5], best)
}
