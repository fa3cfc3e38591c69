package main

import (
	"fmt"
	"math"
	"sort"
)

// tailMargin is how many samples must lie beyond a reported percentile:
// fewer, and the figure is decided by a handful of outliers.
const tailMargin = 10

// percentile returns the exact nearest-rank order statistic of sorted
// (ascending): the smallest sample with at least p percent of the
// samples at or below it. It refuses a percentile above the median with
// fewer than tailMargin samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	k := int(math.Ceil(p*float64(n)/100)) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; p > 50 && beyond < tailMargin {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, tailMargin)
	}
	return sorted[k], nil
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an
// even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// segmentRates splits [0, wall] into n equal spans and returns, for
// each, the work completed in it per second. done[i] is when unit i
// finished, in seconds from the start of the timed section; every unit
// is worth `unit` of work.
func segmentRates(done []float64, unit, wall float64, n int) []float64 {
	rates := make([]float64, n)
	span := wall / float64(n)
	for _, t := range done {
		rates[min(int(t/span), n-1)] += unit / span
	}
	return rates
}

// sortedMicros converts seconds to microseconds, sorted ascending.
func sortedMicros(secs []float64) []float64 {
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = s * 1e6
	}
	sort.Float64s(out)
	return out
}
