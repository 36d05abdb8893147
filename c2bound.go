package c2bound

import (
	"repro/internal/aps"
	"repro/internal/baselines"
	"repro/internal/camat"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/robust"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/speedup"
	"repro/internal/trace"
)

// C-AMAT: the concurrent latency model (§II-A).
type (
	// CAMATParams holds H, MR, AMP, C_H, C_M, pMR and pAMP for one cache
	// level and evaluates AMAT, C-AMAT, C and APC.
	CAMATParams = camat.Params
	// Access is one memory access of a timing trace.
	Access = camat.Access
	// Analysis is the exact cycle-level accounting of a trace.
	Analysis = camat.Analysis
	// Phase is a maximal constant-concurrency interval.
	Phase = camat.Phase
	// Detector is the online HCD/MCD C-AMAT analyzer of Fig. 4.
	Detector = detector.Detector
)

// Analyze performs the exact cycle-level C-AMAT sweep over a trace.
func Analyze(trace []Access) (Analysis, error) { return camat.Analyze(trace) }

// SerializeTrace removes all concurrency from a trace (AMAT's sequential
// special case).
func SerializeTrace(tr []Access) []Access { return camat.Serialize(tr) }

// Fig1Trace returns the five-access demonstration trace of the paper's
// Fig. 1 (AMAT = 3.8, C-AMAT = 1.6).
func Fig1Trace() []Access { return camat.Fig1Trace() }

// NewDetector builds an online C-AMAT detector (one per monitored cache).
func NewDetector() *Detector { return detector.New() }

// Speedup laws (§II-B).
type (
	// ScaleFunc is the problem-size scale function g(N).
	ScaleFunc = speedup.ScaleFunc
	// Table1Row is one row of the paper's Table I.
	Table1Row = speedup.Table1Row
)

// Amdahl, Gustafson and SunNi evaluate the three speedup laws; FixedSize,
// Linear and PowerLaw build the corresponding g(N); GFromComplexity
// derives g(N) numerically from computation and memory complexity.
func Amdahl(fseq, n float64) float64 { return speedup.Amdahl(fseq, n) }

// Gustafson returns the scaled speedup fseq + (1−fseq)·N.
func Gustafson(fseq, n float64) float64 { return speedup.Gustafson(fseq, n) }

// SunNi returns the memory-bounded speedup of Eq. 4.
func SunNi(fseq float64, g ScaleFunc, n float64) float64 { return speedup.SunNi(fseq, g, n) }

// FixedSize returns g(N) = 1 (Amdahl's special case).
func FixedSize() ScaleFunc { return speedup.FixedSize() }

// Linear returns g(N) = N (Gustafson's special case).
func Linear() ScaleFunc { return speedup.Linear() }

// PowerLaw returns g(N) = N^b.
func PowerLaw(b float64) ScaleFunc { return speedup.PowerLaw(b) }

// GFromComplexity derives g(N) from W(n) and M(n) at base dimension n0.
func GFromComplexity(compute, memory func(float64) float64, n0 float64) (ScaleFunc, error) {
	return speedup.FromComplexity(compute, memory, n0)
}

// Table1 returns the executable Table I rows.
func Table1(fftBaseN float64) []Table1Row { return speedup.Table1(fftBaseN) }

// Chip cost model (Eq. 11 and Eq. 12).
type (
	// ChipConfig is the silicon budget, geometry and memory latencies.
	ChipConfig = chip.Config
	// Design is one (N, A0, A1, A2) design point.
	Design = chip.Design
	// Pollack holds the Eq. 11 constants.
	Pollack = chip.Pollack
	// MissRateCurve is the power-law miss-rate-vs-capacity model.
	MissRateCurve = chip.MissRateCurve
)

// DefaultChip returns the paper-like chip configuration used throughout
// the experiments.
func DefaultChip() ChipConfig { return chip.DefaultConfig() }

// The C²-Bound model itself (§III).
type (
	// App is an application profile (measured parameters).
	App = core.App
	// Model couples a chip with an application.
	Model = core.Model
	// Eval is one evaluated design point (all Eq. 7-10 intermediates).
	Eval = core.Eval
	// OptimizeResult is the solved design.
	OptimizeResult = core.Result
	// OptimizeOptions bounds the optimization search.
	OptimizeOptions = core.Options
	// Regime is the §III-C case split.
	Regime = core.Regime
	// Allocation is a per-application core assignment (Fig. 7).
	Allocation = core.Allocation
)

// Regime values.
const (
	MinimizeTime       = core.MinimizeTime
	MaximizeThroughput = core.MaximizeThroughput
)

// Preset application profiles used in the paper's case studies.
func TMMApp() App { return core.TMMApp() }

// StencilApp is a linear-scaling streaming profile.
func StencilApp() App { return core.StencilApp() }

// FFTApp carries the Table I FFT scaling.
func FFTApp() App { return core.FFTApp() }

// FluidanimateApp mimics the PARSEC benchmark of the APS validation.
func FluidanimateApp() App { return core.FluidanimateApp() }

// AllocateCores divides a chip's cores among co-scheduled applications by
// marginal C²-Bound utility (the Fig. 7 case study).
func AllocateCores(cfg ChipConfig, apps []App, totalCores int) ([]Allocation, error) {
	return core.AllocateCores(cfg, apps, totalCores)
}

// Simulator (the GEM5+DRAMSim2 substitute).
type (
	// MachineConfig describes the simulated many-core machine.
	MachineConfig = sim.Config
	// SimResult carries cycles, CPI, per-layer APC and measured C-AMAT.
	SimResult = sim.Result
	// Ref is one memory reference of a workload trace.
	Ref = trace.Ref
	// Generator produces deterministic reference streams.
	Generator = trace.Generator
)

// DefaultMachine returns the paper-like simulated machine with n cores.
func DefaultMachine(cores int) MachineConfig { return sim.DefaultConfig(cores) }

// RunMachine simulates one trace per core.
func RunMachine(cfg MachineConfig, traces [][]Ref) (*SimResult, error) { return sim.Run(cfg, traces) }

// RunWorkload simulates a named synthetic workload (see Workloads).
func RunWorkload(cfg MachineConfig, workload string, wsBytes uint64, meanGap float64, refsPerCore int, seed uint64) (*SimResult, error) {
	return sim.RunWorkload(cfg, workload, wsBytes, meanGap, refsPerCore, seed)
}

// Workloads lists the synthetic workload generators.
func Workloads() []string { return trace.Workloads() }

// NewGenerator builds a workload generator by name.
func NewGenerator(name string, wsBytes uint64, meanGap float64, seed uint64) (Generator, error) {
	return trace.ByName(name, wsBytes, meanGap, seed)
}

// TakeRefs drains n references from a generator.
func TakeRefs(g Generator, n int) []Ref { return trace.Take(g, n) }

// Design space exploration and APS (§III-D, §IV).
type (
	// DesignSpace is a Cartesian parameter grid.
	DesignSpace = dse.Space
	// SpaceParam is one grid dimension.
	SpaceParam = dse.Param
	// Evaluator scores configurations (lower is better).
	Evaluator = dse.Evaluator
	// EvaluatorFunc adapts a plain function.
	EvaluatorFunc = dse.EvaluatorFunc
	// SimEvaluator scores configurations with the simulator.
	SimEvaluator = dse.SimEvaluator
	// APSResult is the APS outcome, including the simulation count.
	APSResult = aps.Result
	// ANNSearch is the predictive-modelling DSE baseline (ref [2]).
	ANNSearch = aps.ANNSearch
)

// NewSimEvaluator builds a simulator-backed evaluator for a fixed-size
// workload of totalRefs references.
func NewSimEvaluator(cfg ChipConfig, workload string, wsBytes uint64, meanGap float64, totalRefs int, seed uint64) (*SimEvaluator, error) {
	return dse.NewSimEvaluator(cfg, workload, wsBytes, meanGap, totalRefs, seed)
}

// Resilient exploration (cancellation, retries, checkpoint/resume).
type (
	// CtxEvaluator is a context-aware, fallible evaluator; SimEvaluator
	// implements it, and AdaptEvaluator lifts a plain Evaluator.
	CtxEvaluator = dse.CtxEvaluator
	// SweepReport is the structured outcome of a resilient sweep:
	// completed/failed/pending indices, retry counts and wall time.
	SweepReport = dse.SweepReport
	// RetryPolicy bounds re-attempts of transiently failing evaluations
	// (exponential backoff with jitter).
	RetryPolicy = robust.RetryPolicy
	// SweepCheckpoint is the JSON sweep-state snapshot written by
	// checkpointed sweeps.
	SweepCheckpoint = dse.Checkpoint
)

// Evaluation engine: the shared memoizing, metered evaluation service.
type (
	// Engine owns the worker pool, the LRU memo cache, in-flight
	// deduplication and the retry/panic-isolation machinery. One engine
	// can serve the analytic optimizer, DSE sweeps and APS concurrently;
	// the WithEngine option (or OptimizeOptions.Engine) attaches it.
	Engine = engine.Engine
	// EngineOptions configures a new engine (workers, cache capacity,
	// retry policy).
	EngineOptions = engine.Options
	// EngineStats is a snapshot of the engine's counters: requests, raw
	// evaluations, cache hits, dedups, retries, panics and evaluator wall
	// time.
	EngineStats = engine.Stats
)

// NewEngine builds an evaluation engine.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// Batched evaluation (DESIGN.md §12): compiled analytic kernels and the
// plane-at-a-time evaluator contract the engine dispatches in chunks.
type (
	// CompiledModel is a Model with every point-independent
	// subexpression folded (Model.Compile); TimeAt/TimeWorkAt evaluate a
	// design allocation-free and bit-identical to Model.Evaluate.
	CompiledModel = core.Compiled
	// BatchEvaluator is the batched evaluator contract: one call scores
	// a whole plane of points. The engine detects it on EvaluateStream
	// and switches to chunked dispatch; implementers must also keep the
	// scalar EvaluateCtx (enforced by the c2vet batchpar analyzer).
	BatchEvaluator = engine.BatchEvaluator
	// BatchFunc adapts a fingerprinted scalar function plus a batched
	// kernel to BatchEvaluator, for ad-hoc batched objectives.
	BatchFunc = engine.BatchFunc
)

// HTTP evaluation service (DESIGN.md §10).
type (
	// Server is the zero-dependency HTTP façade over one shared Engine:
	// single-point evaluation, NDJSON batches, server-side streaming
	// sweeps and the full APS flow, with admission control, per-request
	// deadlines and graceful drain. It implements http.Handler.
	Server = server.Server
	// ServerOptions configures a new Server (engine sharing, admission
	// bounds, timeouts, checkpoint directory, model catalog).
	ServerOptions = server.Options
	// ServerStats is the server's own counter snapshot, reported by
	// /readyz beside the engine snapshot.
	ServerStats = server.Stats
	// ModelCatalog is the server-side registry of named models; requests
	// reference entries by name so the memo cache is shared across
	// clients.
	ModelCatalog = server.Catalog
	// TenantConfig declares one tenant of the service: API key,
	// fair-share weight, concurrency quota and token-bucket rate limit
	// (DESIGN.md §11). ServerOptions.Tenants installs the table;
	// Server.SetTenants swaps it at runtime.
	TenantConfig = server.TenantConfig
	// Job is the persisted and reported record of one /v1/jobs
	// submission: a durable, tenant-scoped background sweep or APS run
	// that resumes from its own checkpoint across restarts.
	Job = server.Job
	// JobProgress is a running job's poll-time heartbeat.
	JobProgress = server.JobProgress
)

// LoadTenantsFile reads a tenant table from a JSON file of the form
// {"tenants": [...]} — the same file the server CLI's -tenants flag
// names and SIGHUP re-reads.
func LoadTenantsFile(path string) ([]TenantConfig, error) {
	return server.LoadTenantsFile(path)
}

// NewServer builds the HTTP evaluation service.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// NewModelCatalog returns the catalog of the paper's case-study
// application profiles (tmm, stencil, fft, fluidanimate) over the
// default chip.
func NewModelCatalog() *ModelCatalog { return server.DefaultCatalog() }

// AdaptEvaluator lifts a plain Evaluator to the context-aware interface.
func AdaptEvaluator(e Evaluator) CtxEvaluator { return dse.WithContext(e) }

// Baselines (§VI).

// HillMartySymmetric returns the symmetric-multicore Amdahl speedup.
func HillMartySymmetric(fseq, n, r float64) (float64, error) {
	return baselines.HillMartySymmetric(fseq, n, r)
}

// HillMartyAsymmetric returns the asymmetric-multicore speedup.
func HillMartyAsymmetric(fseq, n, r float64) (float64, error) {
	return baselines.HillMartyAsymmetric(fseq, n, r)
}

// HillMartyDynamic returns the dynamic-multicore speedup.
func HillMartyDynamic(fseq, n, r float64) (float64, error) {
	return baselines.HillMartyDynamic(fseq, n, r)
}

// SunChen returns the memory-bounded multicore speedup of Sun & Chen.
func SunChen(fseq, n, r float64, g ScaleFunc) (float64, error) {
	return baselines.SunChen(fseq, n, r, g)
}

// CassidyAndreou returns the AMAT-augmented Amdahl execution time.
func CassidyAndreou(cpiExe, fmem, amat, fseq float64, n int) (float64, error) {
	return baselines.CassidyAndreou(cpiExe, fmem, amat, fseq, n)
}
