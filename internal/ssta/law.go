package ssta

import (
	"math"
	"sync"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/memo"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// Law is the analytic chip-delay law of an iid-paths SIMD datapath at
// one supply voltage, built by conditioning on the die-level (D2D)
// variation and integrating it out by quadrature — the D2D+WID split
// preserved exactly:
//
//	path | (d, g)  ~  e^g · Normal(μ(d), σ(d))
//
// where d is the die V_th shift, g the log of the die multiplicative
// factor, and μ(d), σ(d) the die-conditional chain moments from
// internal/device (the within-die part, a sum of 50 iid gate delays,
// is Gaussian by CLT — the moment-matched sum over the chain). The
// unconditional path law is therefore a finite Gaussian mixture, and
// under the paper's iid-paths methodology the lane and chip laws are
// CDF powers of it:
//
//	F_lane = F_path^paths,   F_chip = F_path^(paths·lanes)
//
// The Law evaluates its quantiles and tail probabilities directly, so
// a kernel answered here carries no Monte-Carlo noise and costs
// microseconds; its Table is the tabulated inverse internal/simd and
// the importance sampler push uniforms through. A quantile is the
// bisection root of the path survival; Newton steps first certify a
// bracket around the root, and only the midpoints inside it cost a pass
// over the mixture (about ten passes where plain bisection takes forty,
// with bit-identical results). Construction is pure; a Law is safe for
// concurrent use.
type Law struct {
	paths, lanes int
	mu, sigma, w []float64 // mixture components of the path law
	lo, hi       float64   // quantile search bracket

	once  sync.Once
	table *Table // sampling view, tabulated on first use
}

// lawQuadPoints is the quadrature grid size per die-level axis. The
// integrands are smooth Gaussian mixtures; 17-point normalized Simpson
// over ±5σ resolves the chip CDF well below Monte-Carlo noise at any
// practical sample count.
const lawQuadPoints = 17

// dieRule is the quadrature of both die-level axes.
var dieRule = stats.NormalSimpson(5, lawQuadPoints-1)

// NewLaw builds the analytic law for chains of chainLen gates, paths
// critical paths per lane and lanes lanes, at supply vdd.
func NewLaw(dev device.Params, v device.Variation, vdd float64, chainLen, paths, lanes int) *Law {
	dq, gq := dieRule.For(v.SigmaVthD2D), dieRule.For(v.SigmaMulD2D)
	n := len(dq.X) * len(gq.X)
	l := &Law{
		paths: paths, lanes: lanes,
		mu:    make([]float64, 0, n),
		sigma: make([]float64, 0, n),
		w:     make([]float64, 0, n),
		lo:    math.Inf(1), hi: math.Inf(-1),
	}
	for i, zd := range dq.X {
		m, vr := device.ChainConditionalMoments(dev, v, vdd, chainLen, v.SigmaVthD2D*zd)
		s := math.Sqrt(vr)
		for j, zg := range gq.X {
			mul := math.Exp(v.SigmaMulD2D * zg)
			l.mu = append(l.mu, mul*m)
			l.sigma = append(l.sigma, mul*s)
			l.w = append(l.w, dq.W[i]*gq.W[j])
			if lo := mul * (m - 9*s); lo < l.lo {
				l.lo = lo
			}
			if hi := mul * (m + 12*s); hi > l.hi {
				l.hi = hi
			}
		}
	}
	if l.lo < 0 {
		l.lo = 0
	}
	return l
}

// lawKey is NewLaw's argument list: the whole device and variation
// parameter values, so a custom node never aliases a calibrated one.
type lawKey struct {
	dev                    device.Params
	v                      device.Variation
	vdd                    float64
	chainLen, paths, lanes int
}

// lawMemoBound caps the law memo. An unsampled law is ≈7 KB and a
// sampled one ≈45 KB with its Table; past the bound the memo drops
// every entry and rebuilds on demand.
const lawMemoBound = 1024

var (
	laws = memo.New[lawKey, *Law](lawMemoBound)

	mLawBuilds = telemetry.Default.Counter("ntvsim_ssta_law_builds_total",
		"Chip-delay laws built (misses in the one process-wide law memo Monte-Carlo, importance sampling and SSTA share).")
)

// LawFor returns NewLaw(dev, v, vdd, chainLen, paths, lanes) from the
// process-wide memo, building it on first use. It is the one source of
// chip-delay laws: internal/simd samples its Table and the sweep
// kernels evaluate it in closed form, so each (parameters, Vdd) law is
// built, and tabulated, once while it stays in the memo.
func LawFor(dev device.Params, v device.Variation, vdd float64, chainLen, paths, lanes int) *Law {
	key := lawKey{dev: dev, v: v, vdd: vdd, chainLen: chainLen, paths: paths, lanes: lanes}
	l, _ := laws.Get(key, func() (*Law, error) {
		mLawBuilds.Inc()
		return NewLaw(dev, v, vdd, chainLen, paths, lanes), nil
	})
	return l
}

// PathCDF returns P(path delay ≤ x): the Gaussian-mixture CDF.
func (l *Law) PathCDF(x float64) float64 {
	return 1 - l.PathSurvival(x)
}

// PathSurvival returns P(path delay > x), summed in the survival
// domain so deep upper tails keep full relative precision (the mixture
// CDF saturates to 1 in float64 long before the chip tail does).
func (l *Law) PathSurvival(x float64) float64 {
	var s float64
	for j := range l.mu {
		s += l.w[j] * stats.Normal{Mu: l.mu[j], Sigma: l.sigma[j]}.CDF(2*l.mu[j]-x)
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// maxCDFPow returns P(max of n iid paths ≤ x) = F_path(x)^n, computed
// from the path survival so the result stays accurate when F_path is
// within float64 epsilon of 1.
func (l *Law) maxCDFPow(x float64, n int) float64 {
	s := l.PathSurvival(x)
	if s >= 1 {
		return 0
	}
	return math.Exp(float64(n) * math.Log1p(-s))
}

// LaneCDF returns P(lane delay ≤ x) for a lane of l's paths-per-lane
// iid critical paths.
func (l *Law) LaneCDF(x float64) float64 { return l.maxCDFPow(x, l.paths) }

// ChipCDF returns P(chip delay ≤ x) for the zero-spare chip: the max
// of paths·lanes iid path delays.
func (l *Law) ChipCDF(x float64) float64 { return l.maxCDFPow(x, l.paths*l.lanes) }

// ChipTail returns P(chip delay > x) = 1 − F_path(x)^N with N =
// paths·lanes, evaluated as −expm1(N·log1p(−S)) over the path survival
// S so tails far beyond float64's 1−F resolution remain exact to
// relative precision — the k-sigma yield-loss estimand of the tail
// kernels.
func (l *Law) ChipTail(x float64) float64 {
	s := l.PathSurvival(x)
	if s >= 1 {
		return 1
	}
	return -math.Expm1(float64(l.paths*l.lanes) * math.Log1p(-s))
}

// survivalDensity returns the path survival S(x) and the path density
// f(x) = −S'(x) from one pass over the mixture. Its S agrees with
// PathSurvival to rounding but is not bit-identical to it, so only the
// Newton steps of certify read it.
func (l *Law) survivalDensity(x float64) (s, f float64) {
	for j := range l.mu {
		z := (x - l.mu[j]) / (l.sigma[j] * math.Sqrt2)
		s += l.w[j] * 0.5 * math.Erfc(z)
		f += l.w[j] * math.Exp(-z*z) / l.sigma[j]
	}
	return s, f / math.Sqrt(2*math.Pi)
}

// mixture is what the quantile solver reads of a law: the path survival
// its bisection decides on, and the fused survival-and-density pass its
// Newton steps take. *Law is the one implementation outside tests.
type mixture interface {
	PathSurvival(x float64) float64
	survivalDensity(x float64) (s, f float64)
}

// quantileBisect solves F_path(x) = p^(1/n) — i.e. the p-quantile of
// the max of n iid paths — by bisection on the monotone path survival.
// Solving in the path domain keeps conditioning: for the chip's p99,
// p^(1/n) is within 1e-6 of 1, far better resolved as a survival
// target than as a CDF power.
func (l *Law) quantileBisect(p float64, n int) float64 {
	if math.IsNaN(p) || p <= 0 {
		return l.lo
	}
	if p >= 1 {
		return l.hi
	}
	// Target path survival: 1 − p^(1/n), computed without cancellation.
	target := -math.Expm1(math.Log(p) / float64(n))
	return bisectSurvival(l, l.lo, l.hi, target, l.PathMoments())
}

// bisectSurvival runs the bisection for S(x) = target from the bracket
// [lo, hi], deciding each midpoint by S(mid) > target. Before it starts,
// certify looks for a bracket a < b around the root, seeded from the
// quantile of start (the path law's moment Gaussian). A midpoint at or
// below a then moves lo, and one at or above b moves hi, without a pass
// over the mixture. Only midpoints inside (a, b) evaluate S, so a chip
// quantile costs about ten mixture passes where the plain loop costs
// forty.
//
// The result is bit-identical to the plain loop's:
//   - The true S is non-increasing.
//   - The computed S is a sum of non-negative terms, each within
//     ε ≈ 1e-13 relative of its true value. (The rounding of the erfc
//     argument keeps ε under 1e-12 even for the narrowest calibrated
//     components; terms that underflow add under 1e-305 in all, while a
//     target below 1 is at least 2⁻⁵³/n.)
//   - certify accepts a only if S(a) > target·(1+η), and b only if
//     S(b) < target·(1−η), with η = 1e-10, about 1000ε.
//   - So any midpoint m ≤ a evaluates to at least
//     target·(1+η)(1−ε)/(1+ε) > target, and any m ≥ b to below target:
//     the plain loop would have moved lo, or hi, exactly as the skip does.
//   - Midpoints inside (a, b) are decided by the same PathSurvival
//     calls, with the same summation order, as the plain loop's.
func bisectSurvival(m mixture, lo, hi, target float64, start Gaussian) float64 {
	a, b, ok := certify(m, lo, hi, target, start)
	for i := 0; i < 200 && hi-lo > 0; i++ {
		mid := 0.5 * (lo + hi)
		switch {
		case ok && mid <= a:
			lo = mid
		case ok && mid >= b:
			hi = mid
		case m.PathSurvival(mid) > target:
			lo = mid
		default:
			hi = mid
		}
		if hi-lo <= 1e-12*math.Max(math.Abs(lo), math.Abs(hi)) {
			break
		}
	}
	return 0.5 * (lo + hi)
}

const (
	// certifyEta is the certificate's relative margin η on the target.
	certifyEta = 1e-10
	// newtonSteps caps the Newton steps on ln S − ln target; from the
	// moments' Gaussian quantile three to five reach 1e-10 relative.
	newtonSteps = 6
	// certifyWidenings caps how often the certificate widens.
	certifyWidenings = 3
)

// certify returns a bracket a < b inside (lo, hi) with
// PathSurvival(a) > target·(1+η) and PathSurvival(b) < target·(1−η),
// or ok false when it finds none: a target too near 1 (p → 0), a
// zero or infinite density (zero-σ laws), or an infinite bracket. It
// takes safeguarded Newton steps on ln S(x) − ln target from start's
// quantile, sets a, b = x ∓ d with d sized from the density at the
// root, and widens d eightfold while either end fails its check.
func certify(m mixture, lo, hi, target float64, start Gaussian) (a, b float64, ok bool) {
	if !(target > 0 && target*(1+certifyEta) < 1) ||
		math.IsInf(lo, 0) || math.IsInf(hi, 0) || !(lo < hi) {
		return 0, 0, false
	}
	// The moments' Gaussian quantile, reflected so the tail target is
	// read from Φ⁻¹'s accurate lower branch.
	x := 2*start.Mu - stats.Normal{Mu: start.Mu, Sigma: start.Sigma}.Quantile(target)
	bl, bh := lo, hi // S(bl) > target ≥ S(bh), as far as the passes tell
	if !(x > bl && x < bh) {
		x = 0.5 * (bl + bh)
	}
	lt := math.Log(target)
	var f float64
	for i := 0; i < newtonSteps; i++ {
		var s float64
		s, f = m.survivalDensity(x)
		if !(s > 0) || !(f > 0) || math.IsInf(f, 0) {
			return 0, 0, false
		}
		if s > target {
			bl = x
		} else {
			bh = x
		}
		step := s * (math.Log(s) - lt) / f
		if math.Abs(step) <= 1e-10*x {
			x += step
			break
		}
		if x += step; !(x > bl && x < bh) {
			x = 0.5 * (bl + bh)
		}
	}
	d := 2 * certifyEta * target / f
	for i := 0; i <= certifyWidenings; i, d = i+1, 8*d {
		a, b = x-d, x+d
		if a > lo && b < hi &&
			m.PathSurvival(a) > target*(1+certifyEta) && m.PathSurvival(b) < target*(1-certifyEta) {
			return a, b, true
		}
	}
	return 0, 0, false
}

// ChipQuantile returns the p-quantile (seconds) of the zero-spare chip
// delay.
func (l *Law) ChipQuantile(p float64) float64 {
	return l.quantileBisect(p, l.paths*l.lanes)
}

// LaneQuantile returns the p-quantile (seconds) of one lane's delay.
func (l *Law) LaneQuantile(p float64) float64 {
	return l.quantileBisect(p, l.paths)
}

// PathMoments returns the exact mean and standard deviation of the
// path law (mixture moments — no Gaussian re-interpretation involved).
func (l *Law) PathMoments() Gaussian {
	var m1, m2 float64
	for j := range l.mu {
		m1 += l.w[j] * l.mu[j]
		m2 += l.w[j] * (l.mu[j]*l.mu[j] + l.sigma[j]*l.sigma[j])
	}
	v := m2 - m1*m1
	if v < 0 {
		v = 0
	}
	return Gaussian{Mu: m1, Sigma: math.Sqrt(v)}
}
