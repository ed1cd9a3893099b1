package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{7, 1, 9, 3, 5, 2, 8, 4, 10, 6} // 1..10, shuffled
	cases := []struct {
		name   string
		values []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{42}, 90, 42},
		{"median of ten is the fifth", ten, 50, 5},
		{"p90 of ten is the ninth", ten, 90, 9},
		{"p91 of ten rounds up to the tenth", ten, 91, 10},
		{"p100 is the maximum", ten, 100, 10},
		{"tiny p clamps to the minimum", ten, 0.001, 1},
		{"median of an odd sample is the middle", []float64{3, 1, 2}, 50, 2},
		{"never interpolates", []float64{1, 100}, 50, 1},
	}
	for _, c := range cases {
		if got := percentile(c.values, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.values, c.p, got, c.want)
		}
	}
	if ten[0] != 7 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, // 19 − rank(50)=10 leaves 9
		{20, 50},   // rank 10 leaves 10
		{39, 50},   // rank(75)=30 leaves 9
		{40, 75},   // rank 30 leaves 10
		{99, 75},   // rank(90)=90 leaves 9
		{100, 90},  // rank 90 leaves 10
		{199, 90},  // rank(95)=190 leaves 9
		{200, 95},  // rank 190 leaves 10
		{1000, 99}, // rank 990 leaves 10
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCalibratedDuration(t *testing.T) {
	const msec = time.Millisecond
	cases := []struct {
		name                  string
		wall, kBefore, kAfter time.Duration
		want                  time.Duration
	}{
		{"reference speed leaves wall time unchanged", 80 * msec, KRef, KRef, 80 * msec},
		{"a machine twice as slow halves the reading", 80 * msec, 2 * KRef, 2 * KRef, 40 * msec},
		{"a machine twice as fast doubles it", 80 * msec, KRef / 2, KRef / 2, 160 * msec},
		{"drift inside the segment uses the mean kernel time", 90 * msec, KRef, 2 * KRef, 60 * msec},
		{"a zero kernel reading falls back to wall time", 80 * msec, 0, 0, 80 * msec},
	}
	for _, c := range cases {
		if got := calibrated(c.wall, c.kBefore, c.kAfter); got != c.want {
			t.Errorf("%s: calibrated(%v, %v, %v) = %v, want %v", c.name, c.wall, c.kBefore, c.kAfter, got, c.want)
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// Expected values from statistics.quantiles(values, n=4) (exclusive).
	cases := []struct {
		name   string
		values []float64
		want   float64
	}{
		{"1..10: quartiles 2.75 5.5 8.25", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5},
		{"ten runs: quartiles 9.875 11.25 12.625",
			[]float64{10, 12, 11, 13, 9, 10.5, 11.5, 12.5, 9.5, 13.5}, 2.75 / 11.25},
		{"five runs: quartiles 1.5 3 4.5", []float64{5, 1, 4, 2, 3}, 3.0 / 3.0},
		{"two runs extrapolate: quartiles 0.75 1.5 2.25", []float64{1, 2}, 1.5 / 1.5},
		{"identical runs have no spread", []float64{4, 4, 4, 4}, 0},
		{"one run has no spread", []float64{4}, 0},
	}
	for _, c := range cases {
		if got := iqrShare(c.values); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: iqrShare = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMedianOfRunsAndBound(t *testing.T) {
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median of five runs = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("nearest-rank median of four runs = %v, want the second, 2", got)
	}
	cases := []struct {
		name      string
		base, got float64
		higher    bool
		bound     float64
		worse     float64
		within    bool
	}{
		{"latency 5% up is inside 10%", 100, 105, false, 0.10, 0.05, true},
		{"latency 12% up breaches 10%", 100, 112, false, 0.10, 0.12, false},
		{"latency down never breaches", 100, 50, false, 0.10, -0.5, true},
		{"throughput 12% down breaches 10%", 100, 88, true, 0.10, 0.12, false},
		{"throughput up never breaches", 100, 130, true, 0.10, -0.3, true},
		{"an exact count that holds is inside a 0.1% bound", 732.483, 732.483, false, 0.001, 0, true},
		{"an exact count that moves by 1% is not", 1000, 1010, false, 0.001, 0.01, false},
	}
	for _, c := range cases {
		if got := worseBy(c.base, c.got, c.higher); math.Abs(got-c.worse) > 1e-12 {
			t.Errorf("%s: worseBy = %v, want %v", c.name, got, c.worse)
		}
		if got := withinBound(c.base, c.got, c.bound, c.higher); got != c.within {
			t.Errorf("%s: withinBound = %v, want %v", c.name, got, c.within)
		}
	}
}
