package solve

import (
	"math"
	"testing"
)

// pathological1D builds a scalar function from a shape selector and two
// coefficients. The shapes cover the failure modes the minimizer must
// survive without panicking or looping forever: flat regions (zero
// derivative), NaN-returning domains, discontinuous steps,
// non-differentiable kinks and ill-scaled cubics.
func pathological1D(shape uint8, a, b float64) func(float64) float64 {
	switch shape % 6 {
	case 0: // constant: derivative identically zero
		return func(float64) float64 { return a }
	case 1: // plateau around the origin, cubic outside
		return func(x float64) float64 {
			if math.Abs(x) < 1+math.Abs(b) {
				return a
			}
			return x * x * x
		}
	case 2: // NaN outside a finite window
		return func(x float64) float64 {
			if math.Abs(x) > 1+math.Abs(a) {
				return math.NaN()
			}
			return x - b
		}
	case 3: // discontinuous step
		return func(x float64) float64 {
			if x < a {
				return -1 - math.Abs(b)
			}
			return 1 + math.Abs(b)
		}
	case 4: // |x - a|: kink with no derivative at the root
		return func(x float64) float64 { return math.Abs(x-a) + b*0 }
	default: // ill-scaled cubic
		return func(x float64) float64 { return a*x*x*x + b }
	}
}

// pathologicalND lifts the 1D pathologies to n dimensions by summing one
// per coordinate.
func pathologicalND(shape uint8, a, b float64, dim int) ObjFunc {
	f1 := pathological1D(shape, a, b)
	return func(x []float64) float64 {
		s := 0.0
		for _, xi := range x {
			s += f1(xi)
		}
		return s
	}
}

// FuzzNelderMead drives the simplex minimizer with the pathology
// catalogue. Nelder-Mead has no failure return — the invariants are
// termination within the iteration budget and a non-degenerate best value
// (the minimizer must never fabricate -Inf from a NaN-returning
// objective).
func FuzzNelderMead(f *testing.F) {
	f.Add(uint8(0), 1.0, 0.0, 0.5, uint8(2))
	f.Add(uint8(1), 2.0, 0.5, 0.0, uint8(3))
	f.Add(uint8(2), 1.0, 0.3, 4.0, uint8(2))
	f.Add(uint8(3), 0.0, 1.0, -2.0, uint8(1))
	f.Add(uint8(4), 0.7, 0.0, 5.0, uint8(4))
	f.Add(uint8(5), 1e-6, 1e6, 1.0, uint8(2))
	f.Fuzz(func(t *testing.T, shape uint8, a, b, start float64, dim uint8) {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) ||
			math.IsNaN(start) || math.IsInf(start, 0) {
			t.Skip("non-finite seed")
		}
		n := int(dim%4) + 1
		obj := pathologicalND(shape, a, b, n)
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = start
		}
		x, v := NelderMead(obj, x0, NelderMeadOpts{MaxIter: 500})
		if len(x) != n {
			t.Fatalf("result dimension %d, want %d", len(x), n)
		}
		// The reported value must be what the objective says at x, unless
		// both are NaN (a NaN-only region is an acceptable fixpoint). In
		// particular -Inf may only be reported when the objective is
		// genuinely unbounded at the returned point.
		got := obj(x)
		if math.IsInf(v, -1) && !math.IsInf(got, -1) {
			t.Fatalf("fabricated -Inf minimum at %v (objective says %v)", x, got)
		}
		if !math.IsNaN(v) && !math.IsNaN(got) && v > got+1e-6*(1+math.Abs(got)) {
			t.Fatalf("reported %v but objective at x is %v", v, got)
		}
	})
}
