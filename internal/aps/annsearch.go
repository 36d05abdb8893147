package aps

import (
	"fmt"
	"math"

	"repro/internal/ann"
	"repro/internal/dse"
)

// ANNSearch reproduces the predictive-modelling DSE baseline (Ïpek et
// al., the paper's reference [2]): train a neural network on a growing
// sample of simulated configurations, predict the whole space, simulate
// the predicted best, and stop when the achieved design is within
// targetErr of the true optimum. It returns the total number of
// simulations spent (training samples plus probe simulations), which the
// paper reports as 613 for fluidanimate at APS's 5.96% accuracy.
type ANNSearch struct {
	Space dse.Space
	Eval  dse.Evaluator
	// Truth is the ground-truth value per flat index (from a full sweep);
	// it is used only to *score* candidate designs, never to guide the
	// search.
	Truth []float64

	Seed      uint64
	ChunkSize int // samples added per round (default 25)
	MaxSims   int // give-up budget (default space size)
	Hidden    int // network width (default 16)
	Epochs    int // training epochs per round (default 400)
}

// ANNResult reports the baseline's outcome.
type ANNResult struct {
	Simulations int     // total simulator invocations
	AchievedErr float64 // relative error of the final chosen design
	BestIdx     int
	Rounds      int
}

// Run executes the search until the target error is reached or the
// budget is exhausted (in which case it returns the best achieved state
// together with an error).
func (s *ANNSearch) Run(targetErr float64) (ANNResult, error) {
	size := s.Space.Size()
	if size == 0 || len(s.Truth) != size {
		return ANNResult{}, fmt.Errorf("aps: ANN search needs ground truth for all %d points", size)
	}
	if s.ChunkSize <= 0 {
		s.ChunkSize = 25
	}
	if s.MaxSims <= 0 {
		s.MaxSims = size
	}
	if s.Hidden <= 0 {
		s.Hidden = 16
	}
	if s.Epochs <= 0 {
		s.Epochs = 400
	}
	_, trueBest := dse.Best(s.Truth)
	if math.IsInf(trueBest, 1) {
		return ANNResult{}, fmt.Errorf("aps: ground truth has no finite optimum")
	}

	rng := s.Seed*0x9e3779b97f4a7c15 + 0xdeadbeef
	next := func(n uint64) uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return (z ^ (z >> 31)) % n
	}

	sampled := map[int]bool{}
	var X [][]float64
	var y []float64
	sims := 0
	// With a nil evaluator the search replays the ground-truth values —
	// the common case when a full sweep already ran and re-simulating
	// sampled points would waste time. Simulation *counting* is identical.
	simulate := func(idx int) float64 {
		sims++
		if s.Eval != nil {
			//lint:allow enginepath the ANN baseline meters raw simulator invocations; memoization would distort the paper's Fig. 12 budget comparison
			return s.Eval.Evaluate(s.Space.Point(idx))
		}
		return s.Truth[idx]
	}

	res := ANNResult{BestIdx: -1, AchievedErr: math.Inf(1)}
	for round := 1; sims+s.ChunkSize <= s.MaxSims; round++ {
		// Draw a fresh deterministic sample chunk.
		for added := 0; added < s.ChunkSize && len(sampled) < size; {
			idx := int(next(uint64(size)))
			if sampled[idx] {
				continue
			}
			sampled[idx] = true
			v := simulate(idx)
			if math.IsInf(v, 1) {
				continue // infeasible points are not trainable
			}
			X = append(X, s.Space.Point(idx))
			y = append(y, v)
			added++
		}
		if len(X) < 4 {
			continue
		}
		net, err := ann.New(ann.Config{
			Inputs: s.Space.Dims(), Hidden: s.Hidden, Epochs: s.Epochs,
			Seed: s.Seed + uint64(round),
		})
		if err != nil {
			return res, err
		}
		if err := net.Train(X, y); err != nil {
			return res, err
		}
		// Predict the whole space, simulate the predicted best.
		bestIdx := -1
		bestPred := math.Inf(1)
		for idx := 0; idx < size; idx++ {
			p, err := net.Predict(s.Space.Point(idx))
			if err != nil {
				return res, err
			}
			if p < bestPred {
				bestPred = p
				bestIdx = idx
			}
		}
		achieved := simulate(bestIdx)
		relErr := (achieved - trueBest) / trueBest
		if relErr < res.AchievedErr {
			res.AchievedErr = relErr
			res.BestIdx = bestIdx
		}
		res.Rounds = round
		res.Simulations = sims
		if res.AchievedErr <= targetErr {
			return res, nil
		}
	}
	return res, fmt.Errorf("aps: ANN search exhausted %d simulations at error %.4g (target %.4g)",
		res.Simulations, res.AchievedErr, targetErr)
}
