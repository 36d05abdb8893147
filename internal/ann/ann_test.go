package ann

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func grid2D(n int) [][]float64 {
	var X [][]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			X = append(X, []float64{float64(i) / float64(n-1), float64(j) / float64(n-1)})
		}
	}
	return X
}

func TestConfigDefaults(t *testing.T) {
	if _, err := New(Config{Inputs: 0}); err == nil {
		t.Fatal("zero inputs accepted")
	}
	n, err := New(Config{Inputs: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if n.cfg.Hidden != 16 || n.cfg.Epochs != 500 {
		t.Fatalf("defaults not applied: %+v", n.cfg)
	}
}

func TestPredictBeforeTrain(t *testing.T) {
	n, _ := New(Config{Inputs: 2})
	if _, err := n.Predict([]float64{0, 0}); err == nil {
		t.Fatal("Predict before Train accepted")
	}
}

func TestTrainValidation(t *testing.T) {
	n, _ := New(Config{Inputs: 2})
	if err := n.Train(nil, nil); err == nil {
		t.Fatal("empty training accepted")
	}
	if err := n.Train([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("wrong feature count accepted")
	}
	if err := n.Train([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// predictAll evaluates n at every row of X.
func predictAll(t *testing.T, n *Network, X [][]float64) []float64 {
	t.Helper()
	pred := make([]float64, len(X))
	for i, x := range X {
		v, err := n.Predict(x)
		if err != nil {
			t.Fatalf("Predict(%v): %v", x, err)
		}
		pred[i] = v
	}
	return pred
}

func TestLearnsLinearFunction(t *testing.T) {
	X := grid2D(8)
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = 3*x[0] - 2*x[1] + 1
	}
	n, err := New(Config{Inputs: 2, Hidden: 8, Epochs: 800, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := n.Train(X, y); err != nil {
		t.Fatalf("Train: %v", err)
	}
	pred := predictAll(t, n, X)
	var maxErr float64
	for i := range pred {
		if e := math.Abs(pred[i] - y[i]); e > maxErr {
			maxErr = e
		}
	}
	span := 6.0 // y ranges over [-1, 4]
	if maxErr/span > 0.05 {
		t.Fatalf("linear fit error %v of span", maxErr/span)
	}
}

func TestLearnsSmoothNonlinearSurface(t *testing.T) {
	// The DSE response surface is smooth and monotone-ish; a small net
	// must fit it well.
	X := grid2D(10)
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = 1/(0.2+x[0]) + 2*x[1]*x[1]
	}
	n, err := New(Config{Inputs: 2, Hidden: 16, Epochs: 1500, Seed: 7, LearningRate: 0.03})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := n.Train(X, y); err != nil {
		t.Fatalf("Train: %v", err)
	}
	pred := predictAll(t, n, X)
	mape, err := stats.MAPE(pred, y)
	if err != nil {
		t.Fatalf("MAPE: %v", err)
	}
	if mape > 0.08 {
		t.Fatalf("nonlinear fit MAPE = %v", mape)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	X := grid2D(5)
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = x[0] + x[1]
	}
	run := func() float64 {
		n, _ := New(Config{Inputs: 2, Seed: 42, Epochs: 100})
		if err := n.Train(X, y); err != nil {
			t.Fatalf("Train: %v", err)
		}
		v, _ := n.Predict([]float64{0.3, 0.7})
		return v
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestConstantTarget(t *testing.T) {
	X := grid2D(4)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = 5
	}
	n, _ := New(Config{Inputs: 2, Epochs: 50, Seed: 3})
	if err := n.Train(X, y); err != nil {
		t.Fatalf("Train: %v", err)
	}
	got, err := n.Predict(X[0])
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if math.Abs(got-5) > 0.5 {
		t.Fatalf("constant prediction = %v", got)
	}
}

func TestPredictFeatureMismatch(t *testing.T) {
	X := grid2D(4)
	y := make([]float64, len(X))
	n, _ := New(Config{Inputs: 2, Epochs: 10})
	if err := n.Train(X, y); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := n.Predict([]float64{1}); err == nil {
		t.Fatal("feature mismatch accepted")
	}
}
