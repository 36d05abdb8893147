// Command enginebench measures the evaluation engine's throughput with a
// cold and a warm memo cache and writes the result as JSON (for CI trend
// tracking). The workload is the deterministic analytic c2bound family
// evaluator over a reduced design space: the cold pass computes every
// point, the warm pass re-requests the same points and should be served
// almost entirely from cache.
//
// Usage:
//
//	enginebench [-out file] [-per k] [-rounds n] [-workers n]
//	            [-families] [-obs file] [-server] [-tenants]
//	            [-cluster] [-cluster-peers n] [-clients n] [-duration d]
//	            [-trace out.json] [-metrics] [-cpuprofile out.pprof]
//
// With -families the command benchmarks every registered model family
// through the family-generic path: for each family it measures the cold
// per-request rate (one point per engine call, as POST /v1/evaluate
// dispatches it), the cold batched rate through the family's compiled kernel,
// and the warm cache-hit rate, verifying the scalar and batched sweeps
// are bit-identical before writing the per-family table (typically to
// BENCH_families.json via `make bench-families`). Small family spaces
// are re-swept until each measurement covers a comparable number of
// evaluations, so the rates are commensurable across families.
//
// With -server the command instead load-tests the HTTP serving path: it
// starts an in-process c2bound server on a loopback listener and drives
// it with -clients concurrent HTTP clients batching the space through
// POST /v1/evaluate:batch, cold then warm, writing the report (typically
// to BENCH_server.json via `make bench-server`).
//
// With -tenants the command runs the adversarial multi-tenant scenario:
// a flooder tenant saturates the admission gate with -clients concurrent
// clients for -duration while a trickler tenant sends one request per
// second, and the report records whether the trickler's tail latency and
// shed count survived the flood (typically to BENCH_tenants.json via
// `make bench-tenants`). The run fails if the trickler is ever shed.
//
// With -cluster the command measures the distributed tier end-to-end:
// it builds cmd/c2bound-server, spawns 1..-cluster-peers real server
// processes sharing one peers.json membership table, drives the full
// tmm catalog sweep through the first peer (cold, warm, then a warm
// batch pass) and records ring shard balance, the aggregate warm
// hit-rate as capacity scales out, and the fan-out hop's latency — the
// communication term — into the report (typically BENCH_cluster.json
// via `make bench-cluster`). The run fails on shard imbalance over 15%,
// on any un-triggered local fallback, or if the warm hit rate does not
// rise with peer count.
//
// With -obs the command instead runs the benchmark twice — once with
// observability disabled (nil tracer and registry) and once with a live
// tracer and metrics registry attached — and writes both reports plus
// the relative overhead to the given JSON file. This is the
// "observability is near-free when off" acceptance measurement.
//
// Observability of the benchmark itself: -trace writes a Chrome
// trace_event JSON of the run, -metrics prints the registry snapshot on
// exit, and -cpuprofile records a pprof CPU profile.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
)

// report is the JSON document written to -out.
type report struct {
	Space        int          `json:"space_points"`
	Rounds       int          `json:"rounds"`
	Workers      int          `json:"workers"`
	ColdEvalsSec float64      `json:"cold_evals_per_sec"`
	WarmEvalsSec float64      `json:"warm_evals_per_sec"`
	Speedup      float64      `json:"warm_over_cold"`
	Cold         engine.Stats `json:"cold_stats"`
	Warm         engine.Stats `json:"warm_stats"`
}

// familyReport is one model family's row in -families mode.
type familyReport struct {
	Family string `json:"family"`
	// Space is the benchmarked design count: the family's own grids, or
	// the densified bench grid when those hold too few points to time.
	Space         int     `json:"space_points"`
	ScalarColdSec float64 `json:"scalar_cold_evals_per_sec"`
	BatchColdSec  float64 `json:"batched_cold_evals_per_sec"`
	ColdSpeedup   float64 `json:"batched_over_scalar_cold"`
	WarmEvalsSec  float64 `json:"warm_evals_per_sec"`
	BitIdentical  bool    `json:"bit_identical"`
}

// familiesReport is the JSON document written by -families.
type familiesReport struct {
	App      string         `json:"app"`
	Rounds   int            `json:"rounds"`
	Workers  int            `json:"workers"`
	Families []familyReport `json:"families"`
}

// obsReport is the JSON document written by -obs: the same benchmark run
// with observability off and on, and the relative cost of turning it on.
type obsReport struct {
	Disabled        report  `json:"disabled"`
	Enabled         report  `json:"enabled"`
	ColdOverheadPct float64 `json:"cold_overhead_pct"`
	WarmOverheadPct float64 `json:"warm_overhead_pct"`
	Spans           uint64  `json:"spans_recorded"`
	SpansDropped    uint64  `json:"spans_dropped"`
}

func main() {
	out := flag.String("out", "BENCH_engine.json", "output JSON path")
	per := flag.Int("per", 4, "design-space values per dimension")
	rounds := flag.Int("rounds", 3, "warm passes over the space")
	workers := flag.Int("workers", 0, "engine parallelism (0 = GOMAXPROCS)")
	familiesMode := flag.Bool("families", false, "benchmark every registered model family (cold scalar vs cold batched vs warm, bit-identity verified)")
	obsOut := flag.String("obs", "", "run disabled-vs-enabled observability comparison and write it to this JSON file")
	serverMode := flag.Bool("server", false, "benchmark the HTTP serving path (c2bound-server) instead of the in-process engine")
	tenantsMode := flag.Bool("tenants", false, "run the adversarial flooder-vs-trickler fair-share scenario")
	clusterMode := flag.Bool("cluster", false, "benchmark the multi-process cluster tier (spawns real c2bound-server processes)")
	peerCount := flag.Int("cluster-peers", 3, "largest peer count in -cluster mode (measures 1..n)")
	clients := flag.Int("clients", 8, "concurrent HTTP clients in -server and -tenants modes")
	duration := flag.Duration("duration", 10*time.Second, "flood length in -tenants mode")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	metricsOut := flag.Bool("metrics", false, "print the metrics registry snapshot on exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	flag.Parse()

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

	if *familiesMode {
		runFamiliesBench(*out, *per, *rounds, *workers)
		return
	}
	if *obsOut != "" {
		runCompare(*obsOut, *per, *rounds, *workers)
		return
	}
	if *serverMode {
		runServerBench(*out, *per, *rounds, *workers, *clients)
		return
	}
	if *tenantsMode {
		runTenantBench(*out, *workers, *clients, *duration)
		return
	}
	if *clusterMode {
		runClusterBench(*out, *per, *peerCount)
		return
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
		defer func() {
			if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
				log.Printf("trace: %v", err)
				return
			}
			fmt.Printf("trace: %d spans written to %s (%d dropped)\n",
				tracer.Len(), *traceOut, tracer.Dropped())
		}()
	}
	var metrics *obs.Registry
	if *metricsOut {
		metrics = obs.NewRegistry()
		defer func() {
			fmt.Println("\nmetrics:")
			if err := metrics.WriteText(os.Stdout); err != nil {
				log.Printf("metrics: %v", err)
			}
		}()
	}

	rep := runBench(*per, *rounds, *workers, tracer, metrics)
	writeJSON(*out, rep)
	fmt.Printf("cold: %.0f evals/s, warm: %.0f evals/s (%.1fx), %s → %s\n",
		rep.ColdEvalsSec, rep.WarmEvalsSec, rep.Speedup, rep.Warm, *out)
}

// runBench runs one cold pass and -rounds warm passes on a fresh engine
// carrying the given (possibly nil) tracer and registry.
func runBench(per, rounds, workers int, tracer *obs.Tracer, metrics *obs.Registry) report {
	m := core.Model{Chip: chip.DefaultConfig(), App: core.FluidanimateApp()}
	space, err := dse.ReducedSpace(m.Chip, per)
	if err != nil {
		log.Fatalf("space: %v", err)
	}
	eval := dse.NewFamilyEvaluator(model.NewC2Bound(m))
	eng := engine.New(engine.Options{Workers: workers, Tracer: tracer, Metrics: metrics})
	ctx := context.Background()
	ctx = obs.ContextWithTracer(ctx, tracer)
	ctx = obs.ContextWithMetrics(ctx, metrics)

	sweep := func() {
		if _, _, err := dse.SweepCtx(ctx, eval, space, nil, dse.SweepOptions{Engine: eng}); err != nil {
			log.Fatalf("sweep: %v", err)
		}
	}

	// Cold pass: every point computed.
	start := time.Now()
	sweep()
	coldDur := time.Since(start)
	coldStats := eng.Stats()

	// Warm passes: the same points, served from cache.
	start = time.Now()
	for i := 0; i < rounds; i++ {
		sweep()
	}
	warmDur := time.Since(start)
	warmStats := eng.Stats().Delta(coldStats)

	rep := report{
		Space:        space.Size(),
		Rounds:       rounds,
		Workers:      eng.Workers(),
		ColdEvalsSec: float64(space.Size()) / coldDur.Seconds(),
		WarmEvalsSec: float64(space.Size()*rounds) / warmDur.Seconds(),
		Cold:         coldStats,
		Warm:         warmStats,
	}
	if rep.ColdEvalsSec > 0 {
		rep.Speedup = rep.WarmEvalsSec / rep.ColdEvalsSec
	}
	return rep
}

// familyBenchSpace returns the sweep space for one family's benchmark:
// the family's own subsampled grids when they already carry at least
// `floor` designs, otherwise a denser in-domain grid (linearly spaced
// over each dimension's [Lo, Hi]) so every family's cold measurement
// averages over a comparable number of evaluations instead of drowning
// a four-point space in per-sweep overhead.
func familyBenchSpace(m model.Model, per, floor int) (dse.Space, error) {
	space, err := dse.SpaceFor(m, per)
	if err != nil {
		return dse.Space{}, err
	}
	if space.Size() >= floor {
		return space, nil
	}
	ms := m.Space()
	dims := ms.Dims()
	// k = ceil(floor^(1/dims)): the per-dimension resolution that reaches
	// the floor.
	k := 1
	for {
		total := 1
		for i := 0; i < dims; i++ {
			total *= k
		}
		if total >= floor {
			break
		}
		k++
	}
	params := make([]dse.Param, dims)
	for i, p := range ms.Params {
		n := len(p.Grid)
		if n < k {
			n = k
		}
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = p.Lo + (p.Hi-p.Lo)*float64(j)/float64(n-1)
		}
		params[i] = dse.Param{Name: p.Name, Values: vals}
	}
	return dse.NewSpace(params...)
}

// runFamiliesBench measures each registered model family on the three
// engine paths and verifies the scalar and batched values agree bit for
// bit. "Scalar cold" is the point-at-a-time client path — resolve the
// model, build a fresh evaluator, dispatch one point — which is the
// exact cost profile of a POST /v1/evaluate request (the server resolves
// per request). "Batched cold" resolves the model once and streams the
// whole plane through the compiled kernel on a fresh engine. "Warm"
// re-streams the plane against the populated memo cache. Cold passes
// take the best of a few fresh-engine runs so the rates are not noise
// from one scheduler hiccup.
func runFamiliesBench(out string, per, rounds, workers int) {
	cfg := model.Config{Chip: chip.DefaultConfig(), App: core.FluidanimateApp()}
	ctx := context.Background()
	rep := familiesReport{App: "fluidanimate", Rounds: rounds}

	// The minimum designs per cold measurement: the c2bound space at the
	// same subsampling.
	floor := 1
	for i := 0; i < 6; i++ {
		floor *= per
	}
	// scalarCap bounds the slow per-request pass; the rate is per point,
	// so a subsample of the same plane measures the same thing.
	const scalarCap = 4096

	for _, name := range model.Names() {
		m, err := model.New(name, cfg)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		space, err := familyBenchSpace(m, per, floor)
		if err != nil {
			log.Fatalf("%s space: %v", name, err)
		}
		size := space.Size()
		points := make([][]float64, size)
		for i := range points {
			points[i] = space.Point(i)
		}

		// Scalar cold: the per-request path over a bounded subsample.
		sub := points
		if len(sub) > scalarCap {
			sub = sub[:scalarCap]
		}
		scalarVals := make([]float64, len(sub))
		scalarRate := 0.0
		for r := 0; r < 2; r++ {
			eng := engine.New(engine.Options{Workers: workers})
			start := time.Now()
			for i, p := range sub {
				rm, err := model.New(name, cfg)
				if err != nil {
					log.Fatalf("%s: %v", name, err)
				}
				v, err := eng.Evaluate(ctx, dse.NewFamilyEvaluator(rm), p)
				if err != nil {
					log.Fatalf("%s scalar point %d: %v", name, i, err)
				}
				scalarVals[i] = v
			}
			if rate := float64(len(sub)) / time.Since(start).Seconds(); rate > scalarRate {
				scalarRate = rate
			}
		}

		// Batched cold: the whole plane, one resolved model, fresh engine.
		ev := dse.NewFamilyEvaluator(m)
		batchVals := make([]float64, size)
		batchRate := 0.0
		var eng *engine.Engine
		for r := 0; r < 3; r++ {
			e := engine.New(engine.Options{Workers: workers})
			start := time.Now()
			if err := e.EvaluateBatch(ctx, ev, points, batchVals); err != nil {
				log.Fatalf("%s batch: %v", name, err)
			}
			if rate := float64(size) / time.Since(start).Seconds(); rate > batchRate {
				batchRate = rate
			}
			eng = e
		}
		for i := range sub {
			if math.Float64bits(scalarVals[i]) != math.Float64bits(batchVals[i]) {
				log.Fatalf("%s: bit mismatch at point %d: scalar %v (%016x), batched %v (%016x)",
					name, i, scalarVals[i], math.Float64bits(scalarVals[i]),
					batchVals[i], math.Float64bits(batchVals[i]))
			}
		}

		// Warm passes: the last batched engine already holds every point.
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := eng.EvaluateBatch(ctx, ev, points, batchVals); err != nil {
				log.Fatalf("%s warm: %v", name, err)
			}
		}
		warmRate := float64(size*rounds) / time.Since(start).Seconds()

		fr := familyReport{
			Family:        name,
			Space:         size,
			ScalarColdSec: scalarRate,
			BatchColdSec:  batchRate,
			WarmEvalsSec:  warmRate,
			BitIdentical:  true,
		}
		if scalarRate > 0 {
			fr.ColdSpeedup = batchRate / scalarRate
		}
		rep.Workers = eng.Workers()
		rep.Families = append(rep.Families, fr)
		fmt.Printf("%-10s %6d pts  scalar %9.0f/s  batched %10.0f/s (%5.1fx)  warm %11.0f/s\n",
			name, size, scalarRate, batchRate, fr.ColdSpeedup, warmRate)
	}
	writeJSON(out, rep)
	fmt.Printf("%d families, bit-identical scalar/batched values → %s\n", len(rep.Families), out)
}

// runCompare measures the cost of observability: the same benchmark with
// tracer and registry nil, then live, reported side by side.
func runCompare(out string, per, rounds, workers int) {
	fmt.Println("pass 1/2: observability disabled (nil tracer, nil registry)...")
	disabled := runBench(per, rounds, workers, nil, nil)

	fmt.Println("pass 2/2: observability enabled (live tracer + registry)...")
	tracer := obs.NewTracer(0)
	metrics := obs.NewRegistry()
	enabled := runBench(per, rounds, workers, tracer, metrics)

	cmp := obsReport{
		Disabled:     disabled,
		Enabled:      enabled,
		Spans:        tracer.Recorded(),
		SpansDropped: tracer.Dropped(),
	}
	if enabled.ColdEvalsSec > 0 {
		cmp.ColdOverheadPct = 100 * (disabled.ColdEvalsSec/enabled.ColdEvalsSec - 1)
	}
	if enabled.WarmEvalsSec > 0 {
		cmp.WarmOverheadPct = 100 * (disabled.WarmEvalsSec/enabled.WarmEvalsSec - 1)
	}
	writeJSON(out, cmp)
	fmt.Printf("disabled: cold %.0f, warm %.0f evals/s\n", disabled.ColdEvalsSec, disabled.WarmEvalsSec)
	fmt.Printf("enabled : cold %.0f, warm %.0f evals/s (%d spans, %d dropped)\n",
		enabled.ColdEvalsSec, enabled.WarmEvalsSec, cmp.Spans, cmp.SpansDropped)
	fmt.Printf("overhead: cold %+.1f%%, warm %+.1f%% → %s\n", cmp.ColdOverheadPct, cmp.WarmOverheadPct, out)
}

// writeJSON marshals v with indentation and writes it to path.
func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
}
