// Package model is an enginepath fixture; its name places it in the
// analyzer's guarded-package set. Since the model-family redesign the
// Kernel plane (TimeAt/TimeWorkAt, and TimeAtBatch of the optional batch
// kernel) is guarded exactly like the Evaluator plane.
package model

// Kernel mirrors the model-family kernel interface.
type Kernel interface {
	TimeAt(point []float64) float64
	TimeWorkAt(point []float64) (float64, float64, bool)
}

// BatchKernel mirrors the optional batched kernel interface.
type BatchKernel interface {
	Kernel
	TimeAtBatch(points [][]float64, out []float64)
}

// folded is a concrete kernel standing in for a family's folded struct.
type folded struct{}

func (folded) TimeAt(point []float64) float64                      { return 0 }
func (folded) TimeWorkAt(point []float64) (float64, float64, bool) { return 0, 0, true }
func (folded) TimeAtBatch(points [][]float64, out []float64)       {}

func bypassesKernel(k Kernel) float64 {
	return k.TimeAt(nil) // want "TimeAt through the Kernel interface bypasses internal/engine"
}

func bypassesKernelPair(k Kernel) (float64, float64, bool) {
	return k.TimeWorkAt(nil) // want "TimeWorkAt through the Kernel interface bypasses internal/engine"
}

func bypassesBatchKernel(k BatchKernel, out []float64) {
	k.TimeAtBatch(nil, out) // want "TimeAtBatch through the Kernel interface bypasses internal/engine"
}

func sanctionedConcreteBatch(f folded, out []float64) {
	f.TimeAtBatch(nil, out)
}

func sanctionedConcrete(f folded) float64 {
	return f.TimeAt(nil)
}

func sanctionedPointer(f *folded) float64 {
	return f.TimeAt(nil)
}

func documentedAdapter(k Kernel) float64 {
	//lint:allow enginepath the fixture adapter is the engine's own kernel bridge
	return k.TimeAt(nil)
}

// Evaluator bypasses are guarded in model too.
type Evaluator interface {
	Evaluate(x float64) (float64, error)
}

func bypassesEvaluator(ev Evaluator) (float64, error) {
	return ev.Evaluate(1) // want "Evaluate through the Evaluator interface bypasses internal/engine"
}
