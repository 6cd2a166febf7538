package stats

import "math"

// BinomialCDF returns P(Bin(n, p) ≤ k), summing the pmf terms in log
// space so large n with small p stays accurate. p ≤ 0 and p ≥ 1 are
// the point masses at 0 and n failures.
func BinomialCDF(n int, p float64, k int) float64 {
	if k >= n {
		return 1
	}
	if k < 0 {
		return 0
	}
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0 // k < n successes cannot cover n certain ones
	}
	logP, logQ := math.Log(p), math.Log(1-p)
	var cdf float64
	logC := 0.0 // log C(n, 0)
	for i := 0; i <= k; i++ {
		cdf += math.Exp(logC + float64(i)*logP + float64(n-i)*logQ)
		logC += math.Log(float64(n-i)) - math.Log(float64(i+1))
	}
	if cdf > 1 {
		cdf = 1
	}
	return cdf
}
