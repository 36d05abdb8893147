package c2bound

import (
	"context"

	"repro/internal/aps"
	"repro/internal/chip"
	"repro/internal/dse"
	"repro/internal/model"
)

// Model families (DESIGN.md §14): the pluggable objective contract
// behind every analytic model in the repository. A family is anything
// satisfying FamilyModel — a namespaced Fingerprint, a declared design
// Space and a Compile step returning the batched Kernel — and the whole
// stack (engine memoization, sweeps, APS, the HTTP catalog, figures)
// dispatches through it. Four families ship built-in: c2bound (the
// paper's objective), gpu (the CUDA-core throughput bound), commsync
// (the communication-synchronization Amdahl extension) and sqrtm
// (Ginosar's √m area-speedup law).
type (
	// FamilyModel is the family contract: fingerprint, space, compile.
	FamilyModel = model.Model
	// ModelKernel is a compiled family objective: allocation-free
	// TimeAt/TimeWorkAt, bit-identical to the direct evaluation.
	ModelKernel = model.Kernel
	// ModelFamily describes one registered family: name, doc, parameter
	// domains, constructor.
	ModelFamily = model.Family
	// ModelFamilyParam documents one family parameter (name, inclusive
	// domain, default).
	ModelFamilyParam = model.FamilyParam
	// FamilyConfig is the family-independent construction input: chip,
	// application profile and family parameters.
	FamilyConfig = model.Config
	// ModelSpace declares a family's design-space dimensions.
	ModelSpace = model.Space
	// ModelSpaceParam is one declared dimension: name, domain, grid.
	ModelSpaceParam = model.Param
	// FamilyEvaluator scores any family through the engine's compiled
	// kernel; its scalar EvaluateCtx is the direct evaluation.
	FamilyEvaluator = dse.FamilyEvaluator
	// FamilyOptimum is the outcome of OptimizeFamily's grid scan.
	FamilyOptimum = aps.ModelResult
)

// Built-in family names.
const (
	FamilyC2Bound  = model.FamilyC2Bound
	FamilyGPU      = model.FamilyGPU
	FamilyCommSync = model.FamilyCommSync
	FamilySqrtM    = model.FamilySqrtM
)

// RegisterFamily adds a model family to the registry, making it
// selectable by name here, in the server catalog and in the CLIs. The
// family's fingerprints must carry the "model/<name>:" namespace — the
// registry enforces it at construction, so no family can collide with
// another's engine cache entries.
func RegisterFamily(f ModelFamily) error { return model.Register(f) }

// Families lists the registered model family names, sorted.
func Families() []string { return model.Names() }

// LookupFamily returns a registered family's descriptor (its documented
// parameters and domains).
func LookupFamily(name string) (ModelFamily, bool) { return model.Lookup(name) }

// ModelOption configures BuildModel.
type ModelOption func(*modelConfig)

type modelConfig struct {
	family string
	chip   chip.Config
	params map[string]float64
}

// WithFamily selects the model family by name (default c2bound).
func WithFamily(name string) ModelOption {
	return func(c *modelConfig) { c.family = name }
}

// WithChipConfig sets the chip budget the family evaluates under
// (default DefaultChip).
func WithChipConfig(cfg ChipConfig) ModelOption {
	return func(c *modelConfig) { c.chip = cfg }
}

// WithFamilyParam sets one family-specific parameter (for example
// "m_fma" for the gpu family). Unknown keys and out-of-domain values
// are rejected by BuildModel against the family's documented domains.
func WithFamilyParam(key string, v float64) ModelOption {
	return func(c *modelConfig) {
		if c.params == nil {
			c.params = map[string]float64{}
		}
		c.params[key] = v
	}
}

// BuildModel constructs a family model for an application profile:
// family parameters are defaulted and domain-validated, and the
// resulting fingerprint is family-namespaced. The zero option set
// builds the paper's c2bound objective on the default chip.
func BuildModel(app App, opts ...ModelOption) (FamilyModel, error) {
	c := modelConfig{family: model.FamilyC2Bound, chip: chip.DefaultConfig()}
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return model.New(c.family, model.Config{Chip: c.chip, App: app, Params: c.params})
}

// NewFamilyEvaluator wraps a family model for sweeping: it implements
// CtxEvaluator and the batched engine contract, with the model's own
// namespaced fingerprint as the memo key.
func NewFamilyEvaluator(m FamilyModel) *FamilyEvaluator {
	return dse.NewFamilyEvaluator(m)
}

// FamilyDesignSpace converts a family's declared space into a sweep
// grid, subsampled to at most per values per dimension (per ≤ 0 keeps
// the family's full default grids). For the c2bound family it equals
// the paper's §IV grids (the 10⁶-point space at per ≤ 0).
func FamilyDesignSpace(m FamilyModel, per int) (DesignSpace, error) {
	return dse.SpaceFor(m, per)
}

// OptimizeFamily finds the best design of any family by an exhaustive
// engine-batched scan over its declared space (subsampled to per values
// per dimension; per ≤ 0 scans the full grids). The c2bound family
// additionally has the analytic RunAPS flow; this entry point works for
// every family uniformly and honours WithEngine, WithCheckpoint/
// WithResume, the observability options and the context's deadline.
func OptimizeFamily(ctx context.Context, m FamilyModel, per int, opts ...Option) (FamilyOptimum, error) {
	c := newRunConfig(opts)
	return aps.RunModelCtx(c.context(ctx), m, aps.ModelOptions{Engine: c.engine, Per: per, Sweep: c.sweep})
}
