// Package ann implements the feed-forward neural-network performance
// predictor the paper compares APS against (Ïpek et al., ASPLOS'06,
// reference [2]): a one-hidden-layer network trained with stochastic
// gradient descent plus momentum on (configuration → performance) samples,
// with min-max input/output normalization. Everything is deterministic
// given the seed.
package ann

import (
	"fmt"
	"math"
)

// Config describes the network and its training schedule.
type Config struct {
	Inputs       int
	Hidden       int     // hidden units (default 16)
	LearningRate float64 // default 0.05
	Momentum     float64 // default 0.5
	Epochs       int     // default 500
	Seed         uint64
}

func (c *Config) fill() error {
	if c.Inputs < 1 {
		return fmt.Errorf("ann: %d inputs", c.Inputs)
	}
	if c.Hidden <= 0 {
		c.Hidden = 16
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		c.Momentum = 0.5
	}
	if c.Epochs <= 0 {
		c.Epochs = 500
	}
	return nil
}

// Network is a trained (or trainable) predictor. Create with New, train
// with Train, then call Predict.
type Network struct {
	cfg Config

	// weights: hidden layer [Hidden][Inputs+1], output [Hidden+1]
	// (last index is the bias).
	wh  [][]float64
	wo  []float64
	mh  [][]float64 // momentum buffers
	mo  []float64
	rng uint64

	// normalization ranges, learned in Train
	inMin, inMax []float64
	outMin       float64
	outMax       float64
	trained      bool
}

// New builds an untrained network.
func New(cfg Config) (*Network, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, rng: cfg.Seed*0x9e3779b97f4a7c15 + 0x1234567}
	n.wh = make([][]float64, cfg.Hidden)
	n.mh = make([][]float64, cfg.Hidden)
	for h := range n.wh {
		n.wh[h] = make([]float64, cfg.Inputs+1)
		n.mh[h] = make([]float64, cfg.Inputs+1)
		for i := range n.wh[h] {
			n.wh[h][i] = n.uniform() - 0.5
		}
	}
	n.wo = make([]float64, cfg.Hidden+1)
	n.mo = make([]float64, cfg.Hidden+1)
	for i := range n.wo {
		n.wo[i] = n.uniform() - 0.5
	}
	return n, nil
}

func (n *Network) uniform() float64 {
	n.rng += 0x9e3779b97f4a7c15
	z := n.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

func (n *Network) normIn(x []float64, dst []float64) {
	for i, v := range x {
		span := n.inMax[i] - n.inMin[i]
		if span == 0 { //lint:allow floatguard exact zero marks a degenerate (constant) input range
			dst[i] = 0
			continue
		}
		dst[i] = 2*(v-n.inMin[i])/span - 1
	}
}

// forward computes hidden activations and the normalized output.
func (n *Network) forward(x []float64, hidden []float64) float64 {
	for h := 0; h < n.cfg.Hidden; h++ {
		w := n.wh[h]
		sum := w[n.cfg.Inputs] // bias
		for i, v := range x {
			sum += w[i] * v
		}
		hidden[h] = math.Tanh(sum)
	}
	out := n.wo[n.cfg.Hidden]
	for h, a := range hidden {
		out += n.wo[h] * a
	}
	return out
}

// Train fits the network on the samples. X rows must all have Config.Inputs
// entries. Training is full-batch-shuffled SGD with momentum; the sample
// order is permuted deterministically each epoch.
func (n *Network) Train(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("ann: %d samples, %d targets", len(X), len(y))
	}
	for i, row := range X {
		if len(row) != n.cfg.Inputs {
			return fmt.Errorf("ann: sample %d has %d features, want %d", i, len(row), n.cfg.Inputs)
		}
	}
	// Learn normalization.
	n.inMin = append([]float64(nil), X[0]...)
	n.inMax = append([]float64(nil), X[0]...)
	n.outMin, n.outMax = y[0], y[0]
	for s, row := range X {
		for i, v := range row {
			if v < n.inMin[i] {
				n.inMin[i] = v
			}
			if v > n.inMax[i] {
				n.inMax[i] = v
			}
		}
		if y[s] < n.outMin {
			n.outMin = y[s]
		}
		if y[s] > n.outMax {
			n.outMax = y[s]
		}
	}
	outSpan := n.outMax - n.outMin
	if outSpan == 0 { //lint:allow floatguard exact zero marks a degenerate (constant) output range
		outSpan = 1
	}

	norm := make([][]float64, len(X))
	targets := make([]float64, len(y))
	for s, row := range X {
		norm[s] = make([]float64, n.cfg.Inputs)
		n.normIn(row, norm[s])
		targets[s] = 2*(y[s]-n.outMin)/outSpan - 1
	}

	hidden := make([]float64, n.cfg.Hidden)
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	lr := n.cfg.LearningRate
	mom := n.cfg.Momentum
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		// Deterministic shuffle.
		for i := len(order) - 1; i > 0; i-- {
			j := int(n.rng % uint64(i+1))
			n.rng = n.rng*6364136223846793005 + 1442695040888963407
			order[i], order[j] = order[j], order[i]
		}
		for _, s := range order {
			x := norm[s]
			out := n.forward(x, hidden)
			errOut := targets[s] - out
			// Output layer update.
			for h := 0; h < n.cfg.Hidden; h++ {
				g := lr*errOut*hidden[h] + mom*n.mo[h]
				n.mo[h] = g
				n.wo[h] += g
			}
			gb := lr*errOut + mom*n.mo[n.cfg.Hidden]
			n.mo[n.cfg.Hidden] = gb
			n.wo[n.cfg.Hidden] += gb
			// Hidden layer update (backprop through tanh).
			for h := 0; h < n.cfg.Hidden; h++ {
				delta := errOut * n.wo[h] * (1 - hidden[h]*hidden[h])
				wh := n.wh[h]
				mh := n.mh[h]
				for i, v := range x {
					g := lr*delta*v + mom*mh[i]
					mh[i] = g
					wh[i] += g
				}
				g := lr*delta + mom*mh[n.cfg.Inputs]
				mh[n.cfg.Inputs] = g
				wh[n.cfg.Inputs] += g
			}
		}
	}
	n.trained = true
	return nil
}

// Predict returns the denormalized prediction for one configuration. It
// returns an error if the network has not been trained or the feature
// count mismatches.
func (n *Network) Predict(x []float64) (float64, error) {
	if !n.trained {
		return 0, fmt.Errorf("ann: Predict before Train")
	}
	if len(x) != n.cfg.Inputs {
		return 0, fmt.Errorf("ann: %d features, want %d", len(x), n.cfg.Inputs)
	}
	normed := make([]float64, n.cfg.Inputs)
	n.normIn(x, normed)
	hidden := make([]float64, n.cfg.Hidden)
	out := n.forward(normed, hidden)
	return (out+1)/2*(n.outMax-n.outMin) + n.outMin, nil
}
