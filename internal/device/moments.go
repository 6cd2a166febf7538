package device

import (
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/stats"
)

// Variation describes the statistical variation model applied on top of
// Params. Threshold-voltage variation is additive Gaussian, split into an
// independent within-die (WID) term per gate — random dopant fluctuation
// plus line-edge roughness — and a fully correlated die-to-die (D2D)
// term shared by every gate on a die. A log-normal multiplicative factor
// (geometry/mobility variation) captures the delay variation component
// that does not scale with V_th sensitivity; it too has WID and D2D
// parts. The two-component structure is required to reproduce the
// paper's Figure 1: a pure-iid model underestimates the 50-gate-chain
// variation by roughly 2×.
type Variation struct {
	SigmaVthWID float64 // per-gate σ(V_th), volts
	SigmaVthD2D float64 // per-die σ(V_th), volts
	SigmaMulWID float64 // per-gate log-normal σ of the delay multiplier
	SigmaMulD2D float64 // per-die log-normal σ of the delay multiplier
}

// Validate reports whether the variation parameters are usable.
func (v Variation) Validate() error {
	for _, c := range []struct {
		name string
		val  float64
	}{
		{"SigmaVthWID", v.SigmaVthWID},
		{"SigmaVthD2D", v.SigmaVthD2D},
		{"SigmaMulWID", v.SigmaMulWID},
		{"SigmaMulD2D", v.SigmaMulD2D},
	} {
		if c.val < 0 || math.IsNaN(c.val) || c.val > 1 {
			return fmt.Errorf("device: variation %s = %g outside [0, 1]", c.name, c.val)
		}
	}
	return nil
}

// quadNodes is the Gauss–Hermite order of every moment integral here.
// The integrands are smooth ratios of logs and exponentials in V_th, so
// 24 nodes agree with a 64-node rule to ≈1e-9 relative even at twice
// the calibrated σ.
const quadNodes = 24

var gaussHermite = stats.GaussHermite(quadNodes)

// rawMoments returns E[τ0] and E[τ0²] over the WID V_th law, in one
// pass over its nodes, for a gate whose die-level threshold shift is d
// (multiplicative factors excluded; they are handled analytically).
func rawMoments(p Params, v Variation, vdd, d float64) (m1, m2 float64) {
	vth := p.Vth0 + d
	q := gaussHermite.For(v.SigmaVthWID)
	for i, z := range q.X {
		t := p.Delay(vdd, vth+v.SigmaVthWID*z)
		m1 += q.W[i] * t
		m2 += q.W[i] * t * t
	}
	return m1, m2
}

// GateMoments returns the mean and variance of a single gate's delay at
// supply vdd under the full variation model (WID + D2D, V_th +
// multiplicative).
func GateMoments(p Params, v Variation, vdd float64) (mean, variance float64) {
	emW := math.Exp(v.SigmaMulWID * v.SigmaMulWID / 2)
	emD := math.Exp(v.SigmaMulD2D * v.SigmaMulD2D / 2)
	e2W := math.Exp(2 * v.SigmaMulWID * v.SigmaMulWID)
	e2D := math.Exp(2 * v.SigmaMulD2D * v.SigmaMulD2D)
	var m1, m2 float64
	q := gaussHermite.For(v.SigmaVthD2D)
	for i, z := range q.X {
		a, b := rawMoments(p, v, vdd, v.SigmaVthD2D*z)
		m1 += q.W[i] * a
		m2 += q.W[i] * b
	}
	mean = emW * emD * m1
	variance = e2W*e2D*m2 - mean*mean
	return mean, variance
}

// ChainConditionalMoments returns the mean and variance of the delay of
// an n-gate chain conditional on the die: die-level threshold shift d and
// die-level multiplicative factor excluded (the caller applies the die
// multiplier to both mean and standard deviation).
//
// Gates within the chain have independent WID threshold and multiplier
// variation, so the chain mean is n·E[gate] and the chain variance is
// n·Var[gate], both conditional on d.
func ChainConditionalMoments(p Params, v Variation, vdd float64, n int, d float64) (mean, variance float64) {
	a, b := rawMoments(p, v, vdd, d)
	emW := math.Exp(v.SigmaMulWID * v.SigmaMulWID / 2)
	e2W := math.Exp(2 * v.SigmaMulWID * v.SigmaMulWID)
	gm := emW * a
	gv := e2W*b - gm*gm
	return float64(n) * gm, float64(n) * gv
}

// ChainMoments returns the unconditional mean and variance of an n-gate
// chain delay at supply vdd under the full variation model.
func ChainMoments(p Params, v Variation, vdd float64, n int) (mean, variance float64) {
	emD := math.Exp(v.SigmaMulD2D * v.SigmaMulD2D / 2)
	e2D := math.Exp(2 * v.SigmaMulD2D * v.SigmaMulD2D)
	var m1, m2 float64
	q := gaussHermite.For(v.SigmaVthD2D)
	for i, z := range q.X {
		m, vr := ChainConditionalMoments(p, v, vdd, n, v.SigmaVthD2D*z)
		m1 += q.W[i] * m
		m2 += q.W[i] * (vr + m*m)
	}
	mean = emD * m1
	variance = e2D*m2 - mean*mean
	return mean, variance
}

// ThreeSigmaOverMu converts a (mean, variance) pair into the paper's
// 3σ/μ metric, in percent.
func ThreeSigmaOverMu(mean, variance float64) float64 {
	return 100 * 3 * math.Sqrt(variance) / mean
}
