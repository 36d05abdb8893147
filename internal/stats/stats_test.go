package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{9, 22}, []float64{10, 20})
	if err != nil {
		t.Fatalf("MAPE: %v", err)
	}
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE = %v, want 0.1", got)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err == nil {
		t.Error("all-zero references accepted")
	}
	// Zero references skipped.
	got, err = MAPE([]float64{5, 9}, []float64{0, 10})
	if err != nil || math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE with zero ref = %v, %v", got, err)
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || min != -1 || max != 7 {
		t.Fatalf("MinMax = %v %v %v", min, max, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("empty MinMax accepted")
	}
}

func TestArgMin(t *testing.T) {
	if ArgMin(nil) != -1 {
		t.Fatal("empty ArgMin")
	}
	if got := ArgMin([]float64{3, 1, 2, 1}); got != 1 {
		t.Fatalf("ArgMin = %d", got)
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 4, 16})
	if err != nil || math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean = %v, %v", got, err)
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("negative GeoMean accepted")
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty GeoMean accepted")
	}
}

func TestSpearmanPerfectCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	rho, err := Spearman(a, b)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Fatalf("Spearman = %v, %v; want 1", rho, err)
	}
	// Perfect anti-correlation.
	c := []float64{5, 4, 3, 2, 1}
	rho, err = Spearman(a, c)
	if err != nil || math.Abs(rho+1) > 1e-12 {
		t.Fatalf("Spearman = %v, %v; want -1", rho, err)
	}
}

func TestSpearmanMonotonicNonlinear(t *testing.T) {
	// Rank correlation sees through monotone nonlinearity.
	a := []float64{1, 2, 3, 4, 5, 6}
	b := make([]float64, len(a))
	for i, v := range a {
		b[i] = math.Exp(v)
	}
	rho, err := Spearman(a, b)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Fatalf("Spearman = %v, %v; want 1", rho, err)
	}
}

func TestSpearmanTies(t *testing.T) {
	a := []float64{1, 2, 2, 3}
	b := []float64{1, 2, 2, 3}
	rho, err := Spearman(a, b)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Fatalf("tied Spearman = %v, %v", rho, err)
	}
}

func TestSpearmanUncorrelated(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{3, 8, 1, 6, 2, 7, 4, 5}
	rho, err := Spearman(a, b)
	if err != nil {
		t.Fatalf("Spearman: %v", err)
	}
	if math.Abs(rho) > 0.6 {
		t.Fatalf("shuffled data strongly correlated: %v", rho)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := Spearman([]float64{1, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Spearman([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("too few samples accepted")
	}
	if _, err := Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("constant sample accepted")
	}
}
