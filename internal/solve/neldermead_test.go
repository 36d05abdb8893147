package solve

import (
	"math"
	"testing"
)

func TestNelderMeadQuadraticBowl(t *testing.T) {
	obj := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + 10*(x[1]+2)*(x[1]+2) + 3
	}
	x, f := NelderMead(obj, []float64{5, 5}, NelderMeadOpts{})
	if math.Abs(x[0]-1) > 1e-4 || math.Abs(x[1]+2) > 1e-4 {
		t.Fatalf("minimizer = %v, want (1,−2)", x)
	}
	if math.Abs(f-3) > 1e-6 {
		t.Fatalf("minimum = %v, want 3", f)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	obj := func(v []float64) float64 {
		x, y := v[0], v[1]
		return (1-x)*(1-x) + 100*(y-x*x)*(y-x*x)
	}
	x, f := NelderMead(obj, []float64{-1.2, 1}, NelderMeadOpts{MaxIter: 5000})
	if f > 1e-6 {
		t.Fatalf("minimum = %v at %v, want ≈0 at (1,1)", f, x)
	}
}

func TestNelderMeadEmpty(t *testing.T) {
	x, f := NelderMead(func([]float64) float64 { return 7 }, nil, NelderMeadOpts{})
	if x != nil || f != 7 {
		t.Fatalf("empty NM = %v, %v", x, f)
	}
}

func TestNelderMeadOptsDefaults(t *testing.T) {
	// Zero options select the standard coefficients; a 2-D bowl converges
	// tightly (1-D simplices are degenerate and converge loosely).
	x, f := NelderMead(func(v []float64) float64 { return v[0]*v[0] + v[1]*v[1] },
		[]float64{3, -2}, NelderMeadOpts{MaxIter: 0, Tol: 0, Scale: 0})
	if math.Abs(x[0]) > 1e-3 || math.Abs(x[1]) > 1e-3 || f > 1e-5 {
		t.Fatalf("defaults: %v %v", x, f)
	}
}
