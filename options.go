package c2bound

import (
	"context"
	"time"

	"repro/internal/aps"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Observability (the v2 façade's tracing and metrics surface).
type (
	// Tracer records hierarchical spans into a lock-free ring buffer and
	// exports them as Chrome trace_event JSON (load the file in
	// chrome://tracing or Perfetto). A nil *Tracer is a valid disabled
	// tracer.
	Tracer = obs.Tracer
	// TraceSpan is one recorded span.
	TraceSpan = obs.Span
	// TraceAttr is one key/value span annotation.
	TraceAttr = obs.Attr
	// Metrics is a registry of atomic counters, gauges and histograms
	// with a text exposition (WriteText). A nil *Metrics is a valid
	// disabled registry.
	Metrics = obs.Registry
)

// NewTracer builds a span tracer with the given ring capacity (≤0 picks
// the 64Ki default).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// runConfig is the consolidated configuration behind the v2 entry
// points. The With* options below mutate it; each entry point lowers it
// onto the specific option structs of the internal layers.
type runConfig struct {
	engine     *Engine
	tracer     *Tracer
	metrics    *Metrics
	workers    int
	cache      int
	retry      RetryPolicy
	timeout    time.Duration
	checkpoint string
	every      int
	resume     bool
	radius     int
	metric     aps.Metric
	optimize   OptimizeOptions
}

// Option configures a v2 entry point (Sweep, RunAPS, Optimize).
type Option func(*runConfig)

// WithEngine routes every evaluation through a shared engine, so
// overlapping work across calls (an APS run after a ground-truth sweep)
// reuses the memo cache. The engine's worker bound and retry policy win
// over WithWorkers/WithRetry. A shared engine resolves its instruments
// once at construction — pass the same tracer/registry in EngineOptions
// to see its evaluations in the call's trace and metrics.
func WithEngine(e *Engine) Option { return func(c *runConfig) { c.engine = e } }

// WithTracer records spans for the call (and attaches the tracer to the
// context, so nested layers and private engines inherit it).
func WithTracer(t *Tracer) Option { return func(c *runConfig) { c.tracer = t } }

// WithMetrics counts the call's dse_*, aps_* and sim_* work in r (see
// DESIGN.md §9 for the naming scheme). Its engine_* counts land in r
// only when WithCacheSize builds the call's engine: a WithEngine engine
// counts in its own EngineOptions.Metrics, and any other engine the
// call builds counts in a registry of its own.
func WithMetrics(r *Metrics) Option { return func(c *runConfig) { c.metrics = r } }

// WithWorkers bounds evaluation parallelism (≤0: GOMAXPROCS). Ignored
// when WithEngine is set.
func WithWorkers(n int) Option { return func(c *runConfig) { c.workers = n } }

// WithCacheSize gives the call a private memoizing engine of the given
// capacity in entries (0 picks the engine default; ignored when
// WithEngine supplies one). Without this option Sweep runs uncached —
// indices within one sweep are unique — while RunAPS and Optimize still
// share a private per-call cache.
func WithCacheSize(n int) Option { return func(c *runConfig) { c.cache = n } }

// WithRetry re-attempts failing or panicking evaluations under p.
// Ignored when WithEngine is set (the engine's policy wins).
func WithRetry(p RetryPolicy) Option { return func(c *runConfig) { c.retry = p } }

// WithTimeout bounds the call's wall time; it stacks with any deadline
// the context already carries.
func WithTimeout(d time.Duration) Option { return func(c *runConfig) { c.timeout = d } }

// WithCheckpoint persists sweep progress to path (atomic rename) every
// `every` completed evaluations (≤0 picks the default cadence), so an
// interrupted exploration can resume.
func WithCheckpoint(path string, every int) Option {
	return func(c *runConfig) { c.checkpoint, c.every = path, every }
}

// WithResume restores completed indices from the WithCheckpoint file
// before sweeping, skipping everything it already covers.
func WithResume() Option { return func(c *runConfig) { c.resume = true } }

// WithRadius widens the APS simulated neighborhood around the analytic
// optimum in the A0/A1/A2/N dimensions (0 reproduces the paper's
// issue×ROB-only slice).
func WithRadius(r int) Option { return func(c *runConfig) { c.radius = r } }

// WithThroughputMetric switches the APS objective from execution time to
// time-per-work (the paper's case-I throughput target). The evaluator
// must measure the same quantity.
func WithThroughputMetric() Option { return func(c *runConfig) { c.metric = aps.MetricTimePerWork } }

// WithOptimize forwards bounds to the analytic optimizer (MaxN,
// MinPerCore, MinArea).
func WithOptimize(opts OptimizeOptions) Option {
	return func(c *runConfig) { c.optimize = opts }
}

func newRunConfig(opts []Option) runConfig {
	var c runConfig
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// context attaches the configured tracer and registry to ctx, the
// channel every internal layer reads them from.
func (c *runConfig) context(ctx context.Context) context.Context {
	ctx = obs.ContextWithTracer(ctx, c.tracer)
	ctx = obs.ContextWithMetrics(ctx, c.metrics)
	return ctx
}

// engineFor resolves the call's engine: the shared one when supplied, a
// private memoizing engine when WithCacheSize asked for one, nil
// otherwise (the internal layers then build their own defaults).
func (c *runConfig) engineFor() *Engine {
	if c.engine != nil {
		return c.engine
	}
	if c.cache != 0 {
		return engine.New(engine.Options{
			Workers:   c.workers,
			CacheSize: c.cache,
			Retry:     c.retry,
			Tracer:    c.tracer,
			Metrics:   c.metrics,
		})
	}
	return nil
}

// Sweep brute-forces every point of a space through the hardened
// evaluation pipeline — cancellation, retries, panic isolation, optional
// checkpoint/resume and observability — and returns the dense value
// slice (NaN for unevaluated entries) with the structured report.
// Partial results are valid even when the returned error is non-nil.
// This is the ground-truth path.
func Sweep(ctx context.Context, e CtxEvaluator, s DesignSpace, opts ...Option) ([]float64, SweepReport, error) {
	c := newRunConfig(opts)
	return dse.SweepCtx(c.context(ctx), e, s, nil, dse.SweepOptions{
		Engine:          c.engineFor(),
		Workers:         c.workers,
		Retry:           c.retry,
		Timeout:         c.timeout,
		CheckpointPath:  c.checkpoint,
		CheckpointEvery: c.every,
		Resume:          c.resume,
	})
}

// RunAPS executes the Analysis-Plus-Simulation flow: solve the analytic
// C²-Bound optimization, snap it onto the grid, then simulate only the
// remaining microarchitectural slice. Cancellation propagates into the
// analytic scan and every simulator invocation; WithCheckpoint/WithResume
// make the simulated phase restartable.
func RunAPS(ctx context.Context, m Model, space DesignSpace, eval CtxEvaluator, opts ...Option) (APSResult, error) {
	c := newRunConfig(opts)
	return aps.RunCtx(c.context(ctx), m, space, eval, aps.Options{
		Engine:   c.engineFor(),
		Radius:   c.radius,
		Workers:  c.workers,
		Metric:   c.metric,
		Optimize: c.optimize,
		Sweep: dse.SweepOptions{
			Retry:           c.retry,
			Timeout:         c.timeout,
			CheckpointPath:  c.checkpoint,
			CheckpointEvery: c.every,
			Resume:          c.resume,
		},
	})
}

// Optimize solves the analytic C²-Bound problem for the model — no
// simulation — honouring the context's cancellation and the configured
// engine/observability. Model.Optimize and Model.OptimizeCtx remain for
// direct use; this is the options-first v2 form.
func Optimize(ctx context.Context, m Model, opts ...Option) (OptimizeResult, error) {
	c := newRunConfig(opts)
	optOpts := c.optimize
	if optOpts.Engine == nil {
		optOpts.Engine = c.engineFor()
	}
	return m.OptimizeCtx(c.context(ctx), optOpts)
}
