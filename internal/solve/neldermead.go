// Package solve provides the numerical machinery behind the C²-Bound
// optimization (§III-C): a Nelder-Mead simplex minimizer, which the
// optimizer runs on the Eq. 12 constraint surface to find the area split.
// It is dependency-free and deterministic.
package solve

import (
	"math"
	"sort"
)

// NelderMeadOpts tunes the simplex minimizer. Zero values select the
// standard coefficients.
type NelderMeadOpts struct {
	MaxIter int     // default 2000
	Tol     float64 // convergence on simplex spread; default 1e-10
	Scale   float64 // initial simplex edge relative to |x0|; default 0.1
}

// ObjFunc is a scalar function of a vector.
type ObjFunc func(x []float64) float64

// NelderMead minimizes obj starting from x0 using the Nelder-Mead simplex
// method. It needs no derivatives, so it copes with the area guard's +Inf
// and with kinks in the objective. Returns the best point and its
// objective value.
func NelderMead(obj ObjFunc, x0 []float64, opts NelderMeadOpts) ([]float64, float64) {
	n := len(x0)
	if n == 0 {
		return nil, obj(nil)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 2000
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	if opts.Scale <= 0 {
		opts.Scale = 0.1
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	type vertex struct {
		x []float64
		f float64
	}
	simplex := make([]vertex, n+1)
	simplex[0] = vertex{x: append([]float64(nil), x0...), f: obj(x0)}
	for i := 1; i <= n; i++ {
		x := append([]float64(nil), x0...)
		step := opts.Scale * (1 + math.Abs(x[i-1]))
		x[i-1] += step
		simplex[i] = vertex{x: x, f: obj(x)}
	}
	centroid := make([]float64, n)
	trial := make([]float64, n)
	for iter := 0; iter < opts.MaxIter; iter++ {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		spread := math.Abs(simplex[n].f - simplex[0].f)
		if spread <= opts.Tol*(1+math.Abs(simplex[0].f)) {
			break
		}
		// Centroid of all but the worst.
		for j := 0; j < n; j++ {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				centroid[j] += simplex[i].x[j]
			}
		}
		for j := 0; j < n; j++ {
			centroid[j] /= float64(n)
		}
		worst := &simplex[n]
		// Reflection.
		for j := 0; j < n; j++ {
			trial[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		fr := obj(trial)
		switch {
		case fr < simplex[0].f:
			// Expansion.
			exp := make([]float64, n)
			for j := 0; j < n; j++ {
				exp[j] = centroid[j] + gamma*(trial[j]-centroid[j])
			}
			fe := obj(exp)
			if fe < fr {
				worst.x, worst.f = exp, fe
			} else {
				worst.x, worst.f = append([]float64(nil), trial...), fr
			}
		case fr < simplex[n-1].f:
			worst.x, worst.f = append([]float64(nil), trial...), fr
		default:
			// Contraction.
			for j := 0; j < n; j++ {
				trial[j] = centroid[j] + rho*(worst.x[j]-centroid[j])
			}
			fc := obj(trial)
			if fc < worst.f {
				worst.x, worst.f = append([]float64(nil), trial...), fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = obj(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	return simplex[0].x, simplex[0].f
}
