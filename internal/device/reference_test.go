package device_test

import (
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// referenceSimpson is the Gaussian expectation the moment integrals
// used before Gauss–Hermite: composite Simpson, 160 intervals over ±8σ,
// σ = 0 degenerating to f(0).
func referenceSimpson(sigma float64, f func(float64) float64) float64 {
	const intervals, span = 160, 8.0
	if sigma == 0 {
		return f(0)
	}
	lo, hi := -span*sigma, span*sigma
	h := (hi - lo) / intervals
	inv := 1 / (sigma * math.Sqrt(2*math.Pi))
	dens := func(x float64) float64 {
		z := x / sigma
		return inv * math.Exp(-0.5*z*z)
	}
	sum := f(lo)*dens(lo) + f(hi)*dens(hi)
	for i := 1; i < intervals; i++ {
		x := lo + float64(i)*h
		w := 2.0
		if i%2 == 1 {
			w = 4.0
		}
		sum += w * f(x) * dens(x)
	}
	return sum * h / 3
}

// referenceMoments is the double-pass construction the fused pass
// replaced: each raw moment re-runs the nested D2D × WID integral
// through expect. It returns the gate and the n-gate chain (mean,
// variance).
func referenceMoments(expect func(float64, func(float64) float64) float64,
	p device.Params, v device.Variation, vdd float64, n int) (gm, gv, cm, cv float64) {
	raw := func(d float64, pow int) float64 {
		return expect(v.SigmaVthWID, func(w float64) float64 {
			return math.Pow(p.Delay(vdd, p.Vth0+d+w), float64(pow))
		})
	}
	emW := math.Exp(v.SigmaMulWID * v.SigmaMulWID / 2)
	emD := math.Exp(v.SigmaMulD2D * v.SigmaMulD2D / 2)
	e2W := math.Exp(2 * v.SigmaMulWID * v.SigmaMulWID)
	e2D := math.Exp(2 * v.SigmaMulD2D * v.SigmaMulD2D)

	m1 := expect(v.SigmaVthD2D, func(d float64) float64 { return raw(d, 1) })
	m2 := expect(v.SigmaVthD2D, func(d float64) float64 { return raw(d, 2) })
	gm = emW * emD * m1
	gv = e2W*e2D*m2 - gm*gm

	chain := func(d float64) (mean, variance float64) {
		a := emW * raw(d, 1)
		return float64(n) * a, float64(n) * (e2W*raw(d, 2) - a*a)
	}
	c1 := expect(v.SigmaVthD2D, func(d float64) float64 {
		m, _ := chain(d)
		return m
	})
	c2 := expect(v.SigmaVthD2D, func(d float64) float64 {
		m, vr := chain(d)
		return vr + m*m
	})
	cm = emD * c1
	cv = e2D*c2 - cm*cm
	return gm, gv, cm, cv
}

func scaled(v device.Variation, s float64) device.Variation {
	return device.Variation{
		SigmaVthWID: s * v.SigmaVthWID, SigmaVthD2D: s * v.SigmaVthD2D,
		SigmaMulWID: s * v.SigmaMulWID, SigmaMulD2D: s * v.SigmaMulD2D,
	}
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// forEachSupply runs f over the four calibrated nodes × 0.30–1.10 V in
// 25 mV steps: sub-threshold through nominal supply.
func forEachSupply(f func(node tech.Node, vdd float64)) {
	for _, node := range tech.Nodes() {
		for k := 0; k <= 32; k++ {
			f(node, 0.30+0.025*float64(k))
		}
	}
}

// TestMomentsMatchSimpsonReference holds the fused 24-node
// Gauss–Hermite pass to the double-pass Simpson integrals it replaced,
// across every calibrated node from sub-threshold to nominal supply.
func TestMomentsMatchSimpsonReference(t *testing.T) {
	forEachSupply(func(node tech.Node, vdd float64) {
		gm, gv, cm, cv := referenceMoments(referenceSimpson, node.Dev, node.Var, vdd, tech.ChainLength)
		m, vr := device.GateMoments(node.Dev, node.Var, vdd)
		if e := relErr(m, gm); e > 1e-12 {
			t.Errorf("%s @%.3fV: gate mean off by %.3g relative", node.Name, vdd, e)
		}
		if e := relErr(device.ThreeSigmaOverMu(m, vr), device.ThreeSigmaOverMu(gm, gv)); e > 5e-10 {
			t.Errorf("%s @%.3fV: gate 3σ/μ off by %.3g relative", node.Name, vdd, e)
		}
		m, vr = device.ChainMoments(node.Dev, node.Var, vdd, tech.ChainLength)
		if e := relErr(m, cm); e > 1e-12 {
			t.Errorf("%s @%.3fV: chain mean off by %.3g relative", node.Name, vdd, e)
		}
		if e := relErr(device.ThreeSigmaOverMu(m, vr), device.ThreeSigmaOverMu(cm, cv)); e > 5e-10 {
			t.Errorf("%s @%.3fV: chain 3σ/μ off by %.3g relative", node.Name, vdd, e)
		}
	})
}

// TestMomentsConvergedInNodes: with the variation scaled past the
// calibration, 24 nodes still agree with a 64-node rule — to 1e-9
// relative at 2× σ and 1e-5 at 3× σ — so the rule size is not what
// limits any σ-scaled sweep.
func TestMomentsConvergedInNodes(t *testing.T) {
	gh64 := stats.GaussHermite(64).Expect
	for _, c := range []struct{ scale, tol float64 }{{2, 1e-9}, {3, 1e-5}} {
		forEachSupply(func(node tech.Node, vdd float64) {
			v := scaled(node.Var, c.scale)
			gm, gv, cm, cv := referenceMoments(gh64, node.Dev, v, vdd, tech.ChainLength)
			m, vr := device.GateMoments(node.Dev, v, vdd)
			if e := max(relErr(m, gm), relErr(device.ThreeSigmaOverMu(m, vr), device.ThreeSigmaOverMu(gm, gv))); e > c.tol {
				t.Errorf("%s σ×%g @%.3fV: gate moments off GH-64 by %.3g relative", node.Name, c.scale, vdd, e)
			}
			m, vr = device.ChainMoments(node.Dev, v, vdd, tech.ChainLength)
			if e := max(relErr(m, cm), relErr(device.ThreeSigmaOverMu(m, vr), device.ThreeSigmaOverMu(cm, cv))); e > c.tol {
				t.Errorf("%s σ×%g @%.3fV: chain moments off GH-64 by %.3g relative", node.Name, c.scale, vdd, e)
			}
		})
	}
}

// TestMomentsAllocationFree: the quadrature rule is built once at
// package init, so no moment call allocates.
func TestMomentsAllocationFree(t *testing.T) {
	node := tech.N22
	for name, f := range map[string]func(){
		"GateMoments":             func() { device.GateMoments(node.Dev, node.Var, 0.55) },
		"ChainMoments":            func() { device.ChainMoments(node.Dev, node.Var, 0.55, tech.ChainLength) },
		"ChainConditionalMoments": func() { device.ChainConditionalMoments(node.Dev, node.Var, 0.55, tech.ChainLength, 0.002) },
	} {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, allocs)
		}
	}
}
