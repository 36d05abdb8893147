// Package dse sweeps design spaces, first among them the paper's §IV
// experiment — six microarchitecture parameters (core area A0, L1 area
// A1, L2 slice area A2, core count N, issue width, ROB size) with ten
// candidate values each, a 10⁶-point space declared by the c2bound model
// family — with enumeration, neighborhoods and the parallel brute-force
// sweep (SweepCtx) that serves as the ground truth APS and the ANN
// baseline are measured against.
package dse

import (
	"fmt"
	"math"
)

// Param is one design-space dimension.
type Param struct {
	Name   string
	Values []float64
}

// Space is the Cartesian product of its parameters.
type Space struct {
	Params []Param
}

// NewSpace validates and builds a space.
func NewSpace(params ...Param) (Space, error) {
	if len(params) == 0 {
		return Space{}, fmt.Errorf("dse: empty space")
	}
	for _, p := range params {
		if p.Name == "" || len(p.Values) == 0 {
			return Space{}, fmt.Errorf("dse: parameter %q has no values", p.Name)
		}
	}
	return Space{Params: params}, nil
}

// Dims returns the number of dimensions.
func (s Space) Dims() int { return len(s.Params) }

// Size returns the total number of configurations.
func (s Space) Size() int {
	n := 1
	for _, p := range s.Params {
		n *= len(p.Values)
	}
	return n
}

// DimIndex returns the dimension position of a named parameter, or an
// error if absent.
func (s Space) DimIndex(name string) (int, error) {
	for i, p := range s.Params {
		if p.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("dse: no parameter %q", name)
}

// Coords decodes a flat index into per-dimension value indices
// (row-major: the last dimension varies fastest).
func (s Space) Coords(idx int) []int {
	coords := make([]int, len(s.Params))
	s.decode(coords, idx)
	return coords
}

// decode writes a flat index's per-dimension value indices to coords.
func (s Space) decode(coords []int, idx int) {
	for d := len(s.Params) - 1; d >= 0; d-- {
		n := len(s.Params[d].Values)
		coords[d] = idx % n
		idx /= n
	}
}

// Index encodes per-dimension value indices into a flat index.
func (s Space) Index(coords []int) int {
	idx := 0
	for d, c := range coords {
		idx = idx*len(s.Params[d].Values) + c
	}
	return idx
}

// Point returns the parameter values at a flat index.
func (s Space) Point(idx int) []float64 {
	coords := s.Coords(idx)
	point := make([]float64, len(coords))
	for d, c := range coords {
		point[d] = s.Params[d].Values[c]
	}
	return point
}

// Neighborhood returns the flat indices obtained by varying the listed
// dimensions within ±radius grid steps of center (clipped at the edges)
// while holding all other dimensions at the center coordinates. The
// center itself is included once.
func (s Space) Neighborhood(center []int, radius int, dims []int) []int {
	if radius < 0 {
		radius = 0
	}
	coords := append([]int(nil), center...)
	seen := map[int]bool{}
	out := []int{}
	var rec func(k int)
	rec = func(k int) {
		if k == len(dims) {
			idx := s.Index(coords)
			if !seen[idx] {
				seen[idx] = true
				out = append(out, idx)
			}
			return
		}
		d := dims[k]
		lo := center[d] - radius
		hi := center[d] + radius
		if lo < 0 {
			lo = 0
		}
		if hi >= len(s.Params[d].Values) {
			hi = len(s.Params[d].Values) - 1
		}
		for c := lo; c <= hi; c++ {
			coords[d] = c
			rec(k + 1)
		}
		coords[d] = center[d]
	}
	rec(0)
	return out
}

// Evaluator scores one configuration; smaller is better (execution time).
// Implementations must be safe for concurrent use by multiple goroutines.
type Evaluator interface {
	Evaluate(point []float64) float64
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(point []float64) float64

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(point []float64) float64 { return f(point) }

// Best returns the index and value of the smallest finite entry; idx is −1
// when none is finite.
func Best(values []float64) (int, float64) {
	best := -1
	bestV := math.Inf(1)
	for i, v := range values {
		if !math.IsNaN(v) && v < bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}
