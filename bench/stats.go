package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a latency tail may be reported at.
// p99 is left out so that every fleet reports the same percentile: at the
// default run length two of the three keep fewer than ten steps beyond
// their p99.
var tailLadder = []float64{95, 90, 75, 50}

// minBeyondTail is the number of samples that must lie above a reported
// tail percentile.
const minBeyondTail = 10

// tailPercentile returns the highest percentile of tailLadder that keeps
// at least minBeyond of n samples beyond it, or 50 when none does.
func tailPercentile(n, minBeyond int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= float64(minBeyond) {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile of xs by linear interpolation at
// rank p/100·(n+1), the "exclusive" method of Python's
// statistics.quantiles, so quartiles printed here match what a Python
// reader computes from the same values. Ranks outside [1, n] clamp to the
// extremes. xs is not modified; an empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p / 100 * float64(n+1)
	switch {
	case h <= 1:
		return s[0]
	case h >= float64(n):
		return s[n-1]
	}
	lo := math.Floor(h)
	i := int(lo) - 1
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// relIQR is the distance between the first and third quartiles as a
// share of the median: the run-to-run spread the benchmark is judged by.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (percentile(xs, 75) - percentile(xs, 25)) / math.Abs(m)
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
