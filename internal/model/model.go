// Package model defines the model-family contract behind every analytic
// objective in the repository and the registry that makes families
// pluggable end to end (engine memoization, DSE sweeps, APS, the HTTP
// catalog, the façade and the figures all dispatch through it).
//
// A family is anything satisfying Model:
//
//   - Fingerprint() is the canonical identity used as the engine's memo
//     key. Fingerprints are namespaced per family ("model/<family>:…",
//     see FingerprintPrefix), so two families can never share cache
//     entries even when their parameter points coincide.
//   - Space() declares the design-space dimensions: names, documented
//     domains and a default sweep grid.
//   - Compile() folds every point-independent subexpression once and
//     returns the Kernel the engine's batched path drives.
//
// The bit-exactness contract of core.Compiled extends to every family:
// a compiled Kernel must perform exactly the same floating-point
// operations, in the same order, as the family's direct (uncompiled)
// evaluation — constants may be folded only when folding repeats the
// identical operation on identical inputs. Families implement Direct so
// the differential tests can enforce this over guard-crossing grids.
//
// A kernel may also implement BatchKernel, whose TimeAtBatch scores a
// slice of points in one call so it can reuse work that consecutive
// points share (the c2bound kernel computes each design's Eq. 10 time
// once per run of points that differ only in issue width and ROB size).
// Two rules bind it: out[i] is bit-identical to TimeAt(points[i]) for
// any points in any order, and every piece of reuse state lives in the
// call, because one kernel is shared by all of an engine's workers.
package model

import (
	"fmt"
	"math"
)

// Model is the family contract: an analytic objective the whole stack
// — engine, sweep, APS, server catalog, figures — can evaluate without
// knowing which family it belongs to. Implementations must be safe for
// concurrent use.
type Model interface {
	// Fingerprint returns the canonical, family-qualified identity of
	// the model ("model/<family>:…"). It must cover every parameter the
	// objective reads, because it keys the engine's memo cache.
	Fingerprint() string
	// Space declares the model's design-space dimensions in point
	// order: names, inclusive domains and the default sweep grid.
	Space() Space
	// Compile folds the point-independent subexpressions and returns
	// the batched evaluation kernel, bit-identical to the direct path.
	Compile() (Kernel, error)
}

// Kernel is a compiled model: the allocation-free per-point evaluation
// the engine's batched dispatch drives. Implementations must be safe
// for concurrent use.
//
// Out-of-domain or infeasible points are values, not errors: TimeAt
// returns +Inf and TimeWorkAt reports ok=false, so optimizers can treat
// feasibility as a penalty.
type Kernel interface {
	// TimeAt returns the family objective (execution time; lower is
	// better) at a design point, +Inf for infeasible points.
	TimeAt(point []float64) float64
	// TimeWorkAt returns the execution time and the (possibly scaled)
	// work of the point, ok=false for infeasible points — the pair
	// throughput-style metrics (time per work) are built from.
	TimeWorkAt(point []float64) (t, w float64, ok bool)
}

// BatchKernel is the optional batched form of Kernel, for kernels that
// can share work between consecutive points of a sweep plane.
// dse.FamilyEvaluator drives it on the engine's batched path and falls
// back to a TimeAt loop for kernels without it.
type BatchKernel interface {
	Kernel
	// TimeAtBatch writes out[i] = TimeAt(points[i]), bit for bit, for
	// every i; len(out) must be at least len(points). Any reuse state
	// lives in the call, never in the kernel.
	TimeAtBatch(points [][]float64, out []float64)
}

// Direct is the optional uncompiled reference evaluation of a family.
// Every in-repository family implements it; the differential suite
// compares it bit-for-bit against the compiled Kernel.
type Direct interface {
	// DirectTimeWorkAt evaluates the point without any compile-time
	// folding, bit-identical to the Kernel by the family contract.
	DirectTimeWorkAt(point []float64) (t, w float64, ok bool)
}

// Param is one design-space dimension: its name, the documented
// inclusive domain, and the default sweep grid (ascending, within the
// domain).
type Param struct {
	Name   string
	Lo, Hi float64
	Grid   []float64
}

// Space is a model's design space declaration, in point order.
type Space struct {
	Params []Param
}

// Dims returns the number of dimensions.
func (s Space) Dims() int { return len(s.Params) }

// Names returns the dimension names in point order.
func (s Space) Names() []string {
	names := make([]string, len(s.Params))
	for i, p := range s.Params {
		names[i] = p.Name
	}
	return names
}

// Check validates a point against the space: the dimension count must
// match and every coordinate must be finite and inside its documented
// domain.
func (s Space) Check(point []float64) error {
	if len(point) != len(s.Params) {
		return fmt.Errorf("model: point has %d dims, want %d (%v)", len(point), len(s.Params), s.Names())
	}
	for i, p := range s.Params {
		v := point[i]
		if math.IsNaN(v) || v < p.Lo || v > p.Hi {
			return fmt.Errorf("model: %s=%v outside [%g, %g]", p.Name, v, p.Lo, p.Hi)
		}
	}
	return nil
}

// Grids returns the per-dimension sweep grids, subsampled to at most
// `per` values per dimension (per ≤ 0 keeps the full default grids).
// Subsampling spreads selections across each grid and always keeps the
// largest value; dse.SpaceFor and dse.ReducedSpace both build on it.
func (s Space) Grids(per int) ([][]float64, error) {
	grids := make([][]float64, len(s.Params))
	for i, p := range s.Params {
		if len(p.Grid) == 0 {
			return nil, fmt.Errorf("model: dimension %s has no default grid", p.Name)
		}
		if per <= 0 || per >= len(p.Grid) {
			grids[i] = append([]float64(nil), p.Grid...)
			continue
		}
		vals := make([]float64, per)
		for j := 0; j < per; j++ {
			k := (j + 1) * len(p.Grid) / per
			vals[j] = p.Grid[k-1]
		}
		grids[i] = vals
	}
	return grids, nil
}

// FingerprintPrefix returns the namespace prefix every fingerprint of
// the named family must carry. The registry enforces it at
// construction, so cache keys from two families can never collide.
func FingerprintPrefix(family string) string { return "model/" + family + ":" }
