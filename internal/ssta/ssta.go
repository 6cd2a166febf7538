// Package ssta implements moment-based statistical static timing
// analysis — Clark's max approximation plus an analytic chip-delay law
// — as the first-class analytic counterpart to the repository's
// Monte-Carlo chip-delay engine.
//
// The paper sizes everything from Monte-Carlo distributions; an EDA
// timing flow would instead propagate (μ, σ) pairs through sum and max
// operations using Clark's formulas (C. E. Clark, "The greatest of a
// finite set of random variables", 1961). This package provides both
// flows:
//
//   - the Clark moment algebra (Clark, MaxIID) for cheap Gaussian
//     moment summaries, and
//   - the Law type: the full analytic chip-delay law built by
//     conditioning on the die-level (D2D) variation axes and applying
//     quadrature, preserving the paper's D2D+WID split exactly —
//     conditional on a die draw the 50-gate chain delay is Gaussian by
//     CLT, so the unconditional path law is a Gaussian mixture and the
//     lane/chip laws are powers of its CDF under the iid-paths model.
//
// The Law is the repository's one chip-delay law. In closed form it
// answers the same questions as the Monte-Carlo kernels (p99 chip
// clock, k-sigma tail loss, 3σ/μ) in microseconds and is the engine
// behind the sweep service's `mode: "ssta"` and `mode: "auto"`
// estimators (docs/SSTA.md documents the model and its error
// contract). Its Table, tabulated lazily on first use, is the inverse
// internal/simd's Monte-Carlo sampler and the importance sampler push
// uniforms through, and LawFor serves every estimator from one
// process-wide memo. The pure-Clark ChipP99 summary is kept as the
// cheaper, skew-blind bound whose tail-underestimation the tests
// document.
package ssta

import (
	"math"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/stats"
)

// Gaussian is a (mean, standard deviation) moment pair.
type Gaussian struct {
	Mu    float64
	Sigma float64
}

// Clark returns the Clark approximation of max(X, Y) for jointly
// Gaussian X, Y with correlation rho: the exact first two moments of
// the max, re-interpreted as a Gaussian for further propagation.
func Clark(x, y Gaussian, rho float64) Gaussian {
	// Canonicalize the operand order. max(X, Y) is symmetric but the
	// moment formulas are not bitwise so (Φ(α) and 1−Φ(−α) differ in
	// the last ulp), so evaluate with the larger-mean operand first —
	// making Clark(x, y, ρ) == Clark(y, x, ρ) exactly, a property the
	// fuzz target pins.
	if y.Mu > x.Mu || (y.Mu == x.Mu && y.Sigma > x.Sigma) {
		x, y = y, x
	}
	theta := math.Sqrt(x.Sigma*x.Sigma + y.Sigma*y.Sigma - 2*rho*x.Sigma*y.Sigma)
	if theta == 0 {
		// Perfectly correlated equal-variance operands: max is the
		// larger-mean operand.
		if x.Mu >= y.Mu {
			return x
		}
		return y
	}
	alpha := (x.Mu - y.Mu) / theta
	std := stats.Normal{Mu: 0, Sigma: 1}
	cdf := std.CDF(alpha)
	pdf := std.PDF(alpha)

	m1 := x.Mu*cdf + y.Mu*(1-cdf) + theta*pdf
	m2 := (x.Mu*x.Mu+x.Sigma*x.Sigma)*cdf +
		(y.Mu*y.Mu+y.Sigma*y.Sigma)*(1-cdf) +
		(x.Mu+y.Mu)*theta*pdf
	v := m2 - m1*m1
	if v < 0 {
		v = 0
	}
	return Gaussian{Mu: m1, Sigma: math.Sqrt(v)}
}

// MaxIID returns the Clark-iterated approximation of the maximum of n
// independent copies of g. Pairing is balanced (tournament order) —
// iterating a tournament keeps the Gaussian re-interpretation error
// far smaller than a linear fold.
//
// Identical tournament subtrees are memoized per subtree size, so the
// cost is O(log n) Clark evaluations rather than O(n): the recursion
// max(n) = Clark(max(⌈n/2⌉), max(⌊n/2⌋)) only ever visits O(log n)
// distinct sizes, and the memoized results are bit-identical to the
// plain recursion (pinned by the package goldens).
func MaxIID(g Gaussian, n int) Gaussian {
	if n <= 1 {
		return g
	}
	memo := map[int]Gaussian{1: g}
	var rec func(int) Gaussian
	rec = func(m int) Gaussian {
		if v, ok := memo[m]; ok {
			return v
		}
		v := Clark(rec((m+1)/2), rec(m/2), 0)
		memo[m] = v
		return v
	}
	return rec(n)
}

// Quantile evaluates the Gaussian quantile of g.
func (g Gaussian) Quantile(p float64) float64 {
	return stats.Normal{Mu: g.Mu, Sigma: g.Sigma}.Quantile(p)
}

// ChipModel carries the analytic datapath description: the per-path
// delay moments conditional on the die-level variation, plus the
// die-level spreads — the geometry internal/simd samples.
type ChipModel struct {
	Paths int // critical paths per lane
	Lanes int

	Dev      device.Params
	Var      device.Variation
	ChainLen int
}

// ChipP99 returns the pure-Clark analytic 99 % chip-delay estimate
// (seconds) at supply vdd under the paper's iid-path model: the path
// law's moments are computed by quadrature, lifted through two Clark
// tournaments (paths → lane, lanes → chip), and the 99 % point read off
// the final Gaussian.
//
// Because each tournament level re-interprets a right-skewed max as a
// Gaussian, this estimate systematically under-reads the deep-NTV tail
// (the package tests document ≈20 % at 22 nm / 0.55 V). The Law type's
// ChipQuantile preserves the die-level mixture and does not share that
// bias; it is what the service's ssta mode uses.
func (m ChipModel) ChipP99(vdd float64) float64 {
	mean, variance := device.ChainMoments(m.Dev, m.Var, vdd, m.ChainLen)
	path := Gaussian{Mu: mean, Sigma: math.Sqrt(variance)}
	lane := MaxIID(path, m.Paths)
	chip := MaxIID(lane, m.Lanes)
	return chip.Quantile(0.99)
}
