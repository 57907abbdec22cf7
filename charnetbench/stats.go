package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const minBeyond = 10

// mean returns the arithmetic mean; NaN for no samples.
func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between the
// order statistics (the "inclusive" method of Python's
// statistics.quantiles); NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// qualifies reports whether the p-th percentile (0 < p < 100) of n
// samples has at least minBeyond samples beyond it. The epsilon absorbs
// the rounding of ladder values such as 99.9.
func qualifies(n int, p float64) bool {
	return float64(n)*(100-p)/100+1e-9 >= minBeyond
}

// highestPercentile returns the highest percentile of the ladder 50, 90,
// 99, 99.9, ... that has at least minBeyond of n samples beyond it, and
// false when not even the median qualifies.
func highestPercentile(n int) (float64, bool) {
	if !qualifies(n, 50) {
		return 0, false
	}
	best := 50.0
	for p := 90.0; qualifies(n, p); p = 100 - (100-p)/10 {
		best = p
	}
	return best, true
}

// tail returns the p-th percentile of xs, or an error when fewer than
// minBeyond samples lie beyond it.
func tail(xs []float64, p float64) (float64, error) {
	if !qualifies(len(xs), p) {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", p, len(xs), minBeyond)
	}
	return quantile(xs, p/100), nil
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// secondsOf converts durations to float seconds.
func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// sum adds up xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// scale multiplies every value by f, e.g. seconds to milliseconds.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
