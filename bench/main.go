// Command bench is the repository benchmark. Each invocation runs one
// workload against in-process c2bound servers on loopback listeners, with
// the load generator in the same process, checks every response against
// an in-process oracle, and prints its metrics by name with their units.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 they are its per-layer metrics, taken from an untraced
// half and a traced half of the run (see README.md).
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload serve-mixed|sweep-cold|aps-sim|cluster-sweep
//	                  --seed n [--seconds s] [--trace 0|1]
//	                  [--trace-out trace.json] [--repeat n]
//
// The seed only generates inputs; the servers never see it. The exit code
// is non-zero when any response failed or disagreed with its oracle.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// config sizes a run. The command line sets the seed and the measured
// time; the request sizes are fixed here so every run of a workload does
// the same work per request (the test shrinks them).
type config struct {
	seed    uint64
	seconds float64 // measured time of an end-to-end run
	warm    float64 // open-loop warm-up per rate step, seconds
	setups  int     // stack builds setup_s takes the median of

	batchPoints int // points per serve-mixed batch request
	apsRefs     int // simulated references per aps-sim design
	peerPoints  int // points per direct EvalOnPeer exchange
}

// Design-space sizes: grid values per dimension of each workload's space.
const (
	servePer = 7 // serve-mixed c2bound keys: 4 apps × 7^6 points, more than the cache holds
	sweepPer = 6 // sweep-cold and cluster-sweep: 6^6 = 46 656 points per sweep
	apsPer   = 3 // aps-sim: 3^6 = 729 designs, a 3×3 simulated slice
)

// defaultConfig is the benchmark as BENCHMARK.json runs it.
func defaultConfig() config {
	return config{
		warm:        1,
		setups:      25,
		batchPoints: 32,
		apsRefs:     50000,
		peerPoints:  256,
	}
}

func main() {
	cfg := defaultConfig()
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an untraced and a traced half")
	traceOut := flag.String("trace-out", "", "with --trace 1, also write the traced half as Chrome trace_event JSON to this file")
	repeat := flag.Int("repeat", 0, "run the workload this many times in child processes (seeds seed, seed+1, ...) and print each metric's median and IQR")
	flag.Parse()
	cfg.seed = *seed

	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: need --workload %s, --trace 0|1 and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(runRepeat(*name, cfg, *trace, *repeat))
	}

	ctx := context.Background()
	var rep report
	var err error
	if *trace == 1 {
		rep, err = layerRun(ctx, w, cfg, *traceOut)
	} else {
		rep, err = endToEndRun(ctx, w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	errs      []error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one "name value unit" line per metric, then the JSON line.
func (r report) print(f *os.File) {
	for _, err := range r.errs {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(f, "%s\n", line)
}

// newReport gathers a run's outcome and names its metrics with their
// declared units; every declared metric must have a value.
func newReport(defs []metricDef, values map[string]float64, phases ...*phase) (report, error) {
	r := report{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) {
			v = 0 // a percentile of no samples: every request failed
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, ph := range phases {
		r.Attempted += ph.attempted
		r.Failed += ph.failed
		r.errs = append(r.errs, ph.errs...)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r, nil
}

// phase is one stack's share of a run: the warm-up and timed requests a
// workload sends to it, what they measured, and the oracle checks
// deferred until the stack is gone, so the in-process oracle never
// competes with the servers for the CPUs.
type phase struct {
	ctx     context.Context
	cfg     config
	st      *stack
	client  *http.Client
	seconds float64 // measured time
	// allRates makes serve-mixed run every rate step instead of the mid
	// rate alone.
	allRates bool

	samples   []sample     // timed requests (serve-mixed: the mid rate)
	steps     []stepResult // serve-mixed rate steps
	attempted int
	failed    int
	errs      []error
	checks    []func() error

	// Snapshots bracketing the timed requests.
	mem0, mem1 runtime.MemStats
	reg0, reg1 map[string]float64
	// simulations sums the fresh simulations aps-sim responses report.
	simulations int
}

// sample is one timed request.
type sample struct {
	latency time.Duration
	points  int
}

func newPhase(ctx context.Context, cfg config, st *stack, seconds float64) *phase {
	return &phase{ctx: ctx, cfg: cfg, st: st, client: newClient(), seconds: seconds}
}

// begin and end bracket the timed requests.
func (ph *phase) begin() {
	runtime.ReadMemStats(&ph.mem0)
	ph.reg0 = readRegistries(ph.st)
}

func (ph *phase) end() {
	runtime.ReadMemStats(&ph.mem1)
	ph.reg1 = readRegistries(ph.st)
}

// fail counts one failed request or oracle mismatch.
func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, err)
	}
}

// decoder reads a response body as soon as the request completes and
// returns the design points it scored and the oracle check to run once
// the stack is gone. Decoding at once lets the body go, so a long run
// does not hold every response in memory.
type decoder func(body []byte) (points int, check func() error, err error)

// record accounts one completed request; a timed one becomes a latency
// sample measured from start.
func (ph *phase) record(c *call, start time.Time, timed bool, decode decoder) {
	ph.attempted++
	if !c.ok() {
		ph.fail(c.failure())
		return
	}
	points, check, err := decode(c.resp)
	c.resp, c.body = nil, nil
	if err != nil {
		ph.fail(err)
		return
	}
	if timed {
		ph.samples = append(ph.samples, sample{latency: c.done.Sub(start), points: points})
	}
	ph.checks = append(ph.checks, check)
}

// verify runs the deferred oracle checks, one worker per CPU.
func (ph *phase) verify() {
	errs := make([]error, len(ph.checks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(errs); i = int(next.Add(1)) - 1 {
				errs[i] = ph.checks[i]()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			ph.fail(err)
		}
	}
	ph.checks = nil
	ph.client.CloseIdleConnections()
}

// latencies returns the timed latencies in milliseconds.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency)
	}
	return out
}

// pointsPerSecond is design points scored per second of request latency.
func pointsPerSecond(ss []sample) float64 {
	var pts int
	var busy time.Duration
	for _, s := range ss {
		pts += s.points
		busy += s.latency
	}
	return ratio(float64(pts), busy.Seconds())
}

// endToEndRun measures the end-to-end metrics: stack builds in the fresh
// process for the setup median, then one untraced stack for the timed
// requests.
func endToEndRun(ctx context.Context, w workload, cfg config) (report, error) {
	setups, err := timeSetup(ctx, w.peers, cfg.setups)
	if err != nil {
		return report{}, err
	}
	st, err := newStack(ctx, w.peers, nil)
	if err != nil {
		return report{}, err
	}
	ph := newPhase(ctx, cfg, st, cfg.seconds)
	runErr := w.run(ph)
	rss := peakRSSMB()
	st.close()
	if runErr != nil {
		return report{}, runErr
	}
	ph.verify()

	lat := latencies(ph.samples)
	values := map[string]float64{
		"setup_s":      median(setups),
		"rss_peak_mb":  rss,
		"p50_ms":       percentile(lat, 50),
		"p90_ms":       percentile(lat, 90),
		"points_per_s": pointsPerSecond(ph.samples),
	}
	return newReport(endToEnd, values, ph)
}

// layerRun measures the per-layer metrics: an untraced half (registry,
// engine and runtime deltas, serve-mixed's rate steps), a traced half
// (span self times), then direct timed calls into the layers.
func layerRun(ctx context.Context, w workload, cfg config, traceOut string) (report, error) {
	half := cfg.seconds / 2
	stA, err := newStack(ctx, w.peers, nil)
	if err != nil {
		return report{}, err
	}
	a := newPhase(ctx, cfg, stA, half)
	a.allRates = true
	runErr := w.run(a)
	var peerProbe map[string]float64
	if runErr == nil && w.peers > 1 {
		peerProbe, runErr = probeEvalOnPeer(ctx, stA, cfg)
	}
	stA.close()
	if runErr != nil {
		return report{}, runErr
	}

	tracer := obs.NewTracer(traceCapacity)
	stB, err := newStack(ctx, w.peers, tracer)
	if err != nil {
		return report{}, err
	}
	b := newPhase(ctx, cfg, stB, half)
	runErr = w.run(b)
	var wireBytes int64
	if stB.wire != nil {
		wireBytes = stB.wire.bytes.Load()
	}
	stB.close()
	if runErr != nil {
		return report{}, runErr
	}
	if d := tracer.Dropped(); d > 0 {
		return report{}, fmt.Errorf("span ring overflowed by %d spans; raise traceCapacity", d)
	}
	if traceOut != "" {
		if err := tracer.WriteChromeTraceFile(traceOut); err != nil {
			return report{}, err
		}
	}
	spans := tracer.Snapshot()

	probes, err := runProbes(ctx, cfg)
	if err != nil {
		return report{}, err
	}
	for k, v := range peerProbe {
		probes[k] = v
	}
	a.verify()
	b.verify()
	values := layerMetrics(a, b, spans, wireBytes, probes)
	return newReport(perLayer, values, a, b)
}

// traceCapacity sizes the span ring of a traced half so nothing is
// overwritten (layerRun fails rather than report a partial trace).
const traceCapacity = 1 << 21

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
