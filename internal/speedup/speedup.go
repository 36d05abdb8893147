// Package speedup implements the parallel speedup laws underlying the
// C²-Bound model: Amdahl's law, Gustafson's law and their generalization,
// Sun-Ni's memory-bounded law (Eq. 4 of the paper), together with the
// problem-size scale function g(N) and its derivation from an
// application's computation and memory complexity (§II-B, Table I).
package speedup

import (
	"fmt"
	"math"
)

// ScaleFunc is the problem-size scale function g(N) of Sun-Ni's law: the
// factor by which the problem size grows when the memory capacity grows N
// times. Every ScaleFunc must satisfy g(1) = 1.
type ScaleFunc func(N float64) float64

// FixedSize returns g(N) = 1: the problem size does not scale with memory.
// Sun-Ni's law with FixedSize is exactly Amdahl's law.
func FixedSize() ScaleFunc { return func(float64) float64 { return 1 } }

// Linear returns g(N) = N: the problem size scales with memory capacity.
// Sun-Ni's law with Linear is exactly Gustafson's law.
func Linear() ScaleFunc { return func(N float64) float64 { return N } }

// PowerLaw returns g(N) = N^b. For any power-law memory-to-work relation
// W = h(M) = a·M^b the paper shows g(N) = N^b; b = 3/2 is the dense
// matrix-multiplication case worked in §II-B.
func PowerLaw(b float64) ScaleFunc {
	return func(N float64) float64 { return math.Pow(N, b) }
}

// Complexity is a monotone nondecreasing cost function of the problem
// dimension n (e.g. computation operations or memory words).
type Complexity func(n float64) float64

// FromComplexity derives g(N) numerically from an application's
// computation complexity W(n) and memory complexity M(n), following the
// paper's construction: with W = h(M), g(N) = h(N·M0)/h(M0), where
// M0 = M(n0) is the memory footprint at the base problem dimension n0.
// The inverse h⁻¹ is evaluated by bisection, so M must be strictly
// increasing over [n0, hugeN·n0]. FromComplexity returns an error if the
// complexities are non-positive or non-monotone at n0.
func FromComplexity(compute, memory Complexity, n0 float64) (ScaleFunc, error) {
	if n0 <= 0 {
		return nil, fmt.Errorf("speedup: base dimension n0=%v must be positive", n0)
	}
	w0, m0 := compute(n0), memory(n0)
	if !(w0 > 0) || !(m0 > 0) {
		return nil, fmt.Errorf("speedup: complexities must be positive at n0 (W=%v, M=%v)", w0, m0)
	}
	if memory(n0*1.001) <= m0 || compute(n0*1.001) < w0 {
		return nil, fmt.Errorf("speedup: complexities must be nondecreasing near n0")
	}
	return func(N float64) float64 {
		if N <= 1 {
			return 1
		}
		target := N * m0
		// Bisection for n' with M(n') = N·M0. Upper bracket grows
		// geometrically from n0.
		lo, hi := n0, n0*2
		for memory(hi) < target {
			hi *= 2
			if hi > n0*1e18 {
				break
			}
		}
		for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
			mid := 0.5 * (lo + hi)
			if memory(mid) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		return compute(0.5*(lo+hi)) / w0
	}, nil
}

// Amdahl returns the fixed-size speedup 1 / (fseq + (1−fseq)/N).
func Amdahl(fseq float64, N float64) float64 {
	return 1 / (fseq + (1-fseq)/N)
}

// Gustafson returns the scaled speedup fseq + (1−fseq)·N.
func Gustafson(fseq float64, N float64) float64 {
	return fseq + (1-fseq)*N
}

// SunNi returns the memory-bounded speedup of Eq. 4:
//
//	S(N) = (fseq + (1−fseq)·g(N)) / (fseq + (1−fseq)·g(N)/N)
//
// With g = FixedSize it equals Amdahl; with g = Linear it equals
// Gustafson.
func SunNi(fseq float64, g ScaleFunc, N float64) float64 {
	gn := g(N)
	return (fseq + (1-fseq)*gn) / (fseq + (1-fseq)*gn/N)
}

// GrowthOrder classifies a scale function against O(N), the regime
// boundary of the C²-Bound optimization (§III-C). It estimates the local
// elasticity d(log g)/d(log N) at refN via a centered finite difference.
// Values < 1 mean g(N) < O(N) (an optimal finite core count minimizing T
// exists); values ≥ 1 mean g(N) ≥ O(N) (optimize throughput W/T instead).
func GrowthOrder(g ScaleFunc, refN float64) float64 {
	if refN < 2 {
		refN = 2
	}
	h := 0.01
	lo, hi := refN*(1-h), refN*(1+h)
	glo, ghi := g(lo), g(hi)
	if !(glo > 0) || !(ghi > 0) {
		return 0
	}
	order := (math.Log(ghi) - math.Log(glo)) / (math.Log(hi) - math.Log(lo))
	if math.IsNaN(order) || math.IsInf(order, 0) {
		// A pathological scale function (overflowing or constant-zero
		// slope at extreme refN) must not leak NaN/Inf into the regime
		// classification; order 0 falls back to the sublinear branch.
		return 0
	}
	return order
}
