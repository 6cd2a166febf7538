package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs — the mean of the two middle
// values for an even count, as Python's statistics.median computes it —
// and 0 for an empty sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spreads this benchmark reports match an external
// check of the same values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤
// 100): the smallest sample value with at least p % of the sample at or
// below it; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile in a
// sample of n.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// beyond returns how many of n samples lie above the p-th percentile's
// rank — the tail the percentile rests on. The benchmark trusts a
// percentile only when at least ten samples lie beyond it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}
