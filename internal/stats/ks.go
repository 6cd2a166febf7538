package stats

import (
	"math"
	"sort"
)

// KSStatistic returns the two-sample Kolmogorov–Smirnov statistic
// D = sup |F1(x) − F2(x)| between samples xs and ys.
func KSStatistic(xs, ys []float64) float64 {
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		// Advance both samples through the current smallest value so
		// ties are counted on both sides before comparing the CDFs.
		x := a[i]
		if b[j] < x {
			x = b[j]
		}
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d
}

// KSCritical returns the approximate large-sample critical value of the
// two-sample KS statistic at significance alpha ∈ {0.10, 0.05, 0.01}.
func KSCritical(n1, n2 int, alpha float64) float64 {
	var c float64
	switch {
	case alpha <= 0.01:
		c = 1.63
	case alpha <= 0.05:
		c = 1.36
	default:
		c = 1.22
	}
	return c * math.Sqrt(float64(n1+n2)/float64(n1*n2))
}
