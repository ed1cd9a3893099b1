package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// values: the smallest observation with at least p % of the sample at or
// below it. It is always an observed value, never an interpolation, so a
// percentile of exact counts is itself exact. Empty input gives 0.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p in a sample of n.
func rankOf(n int, p float64) int {
	// The epsilon absorbs binary rounding of p/100 (99.9% of 10,000 must be
	// rank 9,990, not 9,991).
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailPercentiles are the candidates highestPercentile picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest of tailPercentiles whose nearest
// rank leaves at least ten observations beyond it in a sample of n; 50
// when none does. A tail estimated from fewer than ten observations moves
// with every outlier and cannot carry a regression bound.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rankOf(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// calibrated converts a wall-clock duration into reference-machine time:
// wall × KRef ÷ mean(kBefore, kAfter), the calibration kernel's duration
// just before and just after the segment. Non-positive kernel readings
// (a clock step) leave the wall value unscaled.
func calibrated(wall, kBefore, kAfter time.Duration) time.Duration {
	return time.Duration(math.Round(float64(wall) * calibFactor(kBefore, kAfter)))
}

// calibFactor is the multiplier calibrated applies.
func calibFactor(kBefore, kAfter time.Duration) float64 {
	k := (float64(kBefore) + float64(kAfter)) / 2
	if k <= 0 {
		return 1
	}
	return float64(KRef) / k
}

// median is the nearest-rank median of a set of runs.
func median(values []float64) float64 { return percentile(values, 50) }

// iqrShare is the run-to-run spread the acceptance rule uses: the distance
// between the first and third quartile as a share of the median, with the
// quartiles of Python's statistics.quantiles(values, n=4) (exclusive
// method). Fewer than two values, or a zero median, give 0.
func iqrShare(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	q := func(k int) float64 { // k-th quartile, exclusive method
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// worseBy is how much worse `got` is than `base` as a share of base, in the
// metric's direction: positive means worse. higherIsBetter flips the sign.
func worseBy(base, got float64, higherIsBetter bool) float64 {
	if base == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (got - base) / math.Abs(base)
	if higherIsBetter {
		return -d
	}
	return d
}

// withinBound reports whether `got` is no worse than `base` by more than
// bound (a share of base). Getting better never breaches.
func withinBound(base, got, bound float64, higherIsBetter bool) bool {
	return worseBy(base, got, higherIsBetter) <= bound
}

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}
