// Package stats provides the descriptive statistics, distributions and
// hypothesis tests used throughout the Monte-Carlo variation study:
// moments, quantiles and their order-statistic confidence intervals,
// the one order-statistic routine (Select, which every quantile of an
// unsorted sample reads instead of sorting it), histograms, the
// Gaussian and binomial distributions, and the two-sample
// Kolmogorov–Smirnov test. It is also the one home of the
// quadrature rules every Gaussian expectation in the repository is
// integrated with: Gauss–Hermite for smooth integrands and
// normal-weighted Simpson for tail-dominated ones.
//
// All functions operate on float64 samples held in slices: the
// Monte-Carlo engine returns every sample in index order, so moments
// are reduced from the slice and no streaming accumulator is needed.
// Unless stated otherwise they do not modify their inputs; functions
// that need ordered data either order a copy or state the precondition
// explicitly, and Select and QuantileInPlace reorder the slice they are
// handed.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs. It returns NaN for an empty
// slice, mirroring the behaviour of the other moment functions.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance of xs.
// It returns NaN if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// ThreeSigmaOverMu returns the paper's headline variation metric
// 3σ/μ expressed as a percentage: 100·3·StdDev(xs)/Mean(xs).
func ThreeSigmaOverMu(xs []float64) float64 {
	return 100 * 3 * StdDev(xs) / Mean(xs)
}

// MinMax returns the minimum and maximum of xs.
// It returns (NaN, NaN) for an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Summary bundles the descriptive statistics reported for every delay
// distribution in the study.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P99    float64 // the paper's chip-delay operating point
}

// Summarize computes a Summary of xs. The slice is not modified; its
// quantiles are selected on one copy. xs must hold no NaN.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		s.Mean, s.StdDev, s.Min, s.Max, s.P50, s.P99 = nan, nan, nan, nan, nan, nan
		return s
	}
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.Min, s.Max = MinMax(xs)
	c := append([]float64(nil), xs...)
	s.P50 = QuantileInPlace(c, 0.50)
	s.P99 = QuantileInPlace(c, 0.99)
	return s
}

// ThreeSigmaOverMu returns 100·3σ/μ for the summarized sample.
func (s Summary) ThreeSigmaOverMu() float64 {
	return 100 * 3 * s.StdDev / s.Mean
}

// String renders the summary on one line, suitable for experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g 3σ/μ=%.2f%% p50=%.6g p99=%.6g",
		s.N, s.Mean, s.StdDev, s.ThreeSigmaOverMu(), s.P50, s.P99)
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// The input need not be sorted and is not modified: QuantileInPlace
// reads a copy. xs must hold no NaN.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return QuantileInPlace(append([]float64(nil), xs...), p)
}

// QuantileInPlace is Quantile for a slice the caller lets it reorder:
// instead of sorting, it selects the one or two order statistics the
// interpolation reads, in O(len(xs)) on average. It returns the value
// sort.Float64s and QuantileSorted would (a zero's sign may differ where
// the answer is a tie of ±0, whose order sort leaves unspecified too).
// xs must hold no NaN.
func QuantileInPlace(xs []float64, p float64) float64 {
	n := len(xs)
	switch {
	case n == 0:
		return math.NaN()
	case p <= 0:
		return Select(xs, 0)
	case p >= 1:
		return Select(xs, n-1)
	}
	h := p * float64(n-1)
	i := int(math.Floor(h))
	if i+1 >= n {
		return Select(xs, n-1)
	}
	lo := Select(xs, i)
	// Select leaves every value above rank i in xs[i+1:], so the next
	// order statistic is their minimum.
	hi := xs[i+1]
	for _, x := range xs[i+2:] {
		if x < hi {
			hi = x
		}
	}
	return lo + (h-float64(i))*(hi-lo)
}

// QuantileSorted is Quantile for data already sorted ascending.
func QuantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	i := int(math.Floor(h))
	frac := h - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// Select returns the value sort.Float64s(a) would leave at a[k],
// partially reordering a in place so that a[:k] ≤ a[k] ≤ a[k+1:]: Hoare
// selection with a median-of-three pivot, O(len(a)) on average. a must
// hold no NaN.
func Select(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] ≤ p ≤ a[i..hi], and everything strictly between
		// equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// QuantileCI returns a distribution-free confidence interval for the
// p-quantile of the population underlying the sorted sample, at the
// given confidence level (e.g. 0.95). It uses the normal approximation
// to the binomial order-statistic bounds — the standard way to report
// the Monte-Carlo noise on a 99 % delay point. The interval is clamped
// to the sample range.
func QuantileCI(sorted []float64, p, confidence float64) (lo, hi float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return sorted[0], sorted[0]
	}
	z := Normal{Mu: 0, Sigma: 1}.Quantile(0.5 + confidence/2)
	se := z * math.Sqrt(p*(1-p)*float64(n))
	center := p * float64(n)
	loIdx := int(math.Floor(center - se))
	hiIdx := int(math.Ceil(center + se))
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx > n-1 {
		hiIdx = n - 1
	}
	return sorted[loIdx], sorted[hiIdx]
}
