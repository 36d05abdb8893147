// Package stats provides the small statistical helpers the experiment
// harness uses: means, extrema, rank correlation and relative-error
// metrics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MAPE returns the mean absolute percentage error between predictions and
// references (skipping zero references).
func MAPE(pred, ref []float64) (float64, error) {
	if len(pred) != len(ref) {
		return 0, fmt.Errorf("stats: MAPE length mismatch %d vs %d", len(pred), len(ref))
	}
	var sum float64
	n := 0
	for i := range pred {
		if ref[i] == 0 { //lint:allow floatguard exact zero references are excluded from MAPE by definition
			continue
		}
		sum += math.Abs(pred[i]-ref[i]) / math.Abs(ref[i])
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("stats: MAPE with no usable references")
	}
	return sum / float64(n), nil
}

// MinMax returns the extrema; an error for an empty slice.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// ArgMin returns the index of the smallest element; −1 for empty input.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// ranks assigns average ranks (1-based) with ties averaged.
func ranks(xs []float64) []float64 {
	type iv struct {
		v float64
		i int
	}
	sorted := make([]iv, len(xs))
	for i, v := range xs {
		sorted[i] = iv{v, i}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].v < sorted[b].v })
	out := make([]float64, len(xs))
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].v == sorted[i].v { //lint:allow floatguard rank ties are bit-exact by definition
			j++
		}
		avg := float64(i+j+1) / 2 // mean of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			out[sorted[k].i] = avg
		}
		i = j
	}
	return out
}

// Spearman returns the Spearman rank correlation coefficient between two
// equally long samples (ties handled by average ranks). It is the metric
// used to validate that the analytic model orders designs like the
// simulator does.
func Spearman(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: Spearman length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) < 3 {
		return 0, fmt.Errorf("stats: Spearman needs ≥3 samples, have %d", len(a))
	}
	ra, rb := ranks(a), ranks(b)
	ma, mb := Mean(ra), Mean(rb)
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 { //lint:allow floatguard exact zero variance marks constant ranks
		return 0, fmt.Errorf("stats: Spearman with constant ranks")
	}
	return cov / math.Sqrt(va*vb), nil
}

// GeoMean returns the geometric mean of positive values.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: GeoMean of empty slice")
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: GeoMean needs positive values (got %v)", x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}
