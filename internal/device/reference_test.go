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

// referenceLog1pExp, referenceOnCurrent and referenceDelay are
// log1pExp, OnCurrent and Delay written with Delay dividing by its
// receiver's OnCurrent method: the oracle Delay, OnCurrent and
// NominalDelay must match bit for bit.
func referenceLog1pExp(x float64) float64 {
	if x > 35 {
		return x // e^-35 ≈ 6e-16: below double precision relative to x
	}
	if x < -35 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

func referenceOnCurrent(p device.Params, vdd, vth float64) float64 {
	l := referenceLog1pExp((vdd - vth) / (2 * p.N * device.PhiT))
	return l * l
}

func referenceDelay(p device.Params, vdd, vth float64) float64 {
	return p.Kd * vdd / referenceOnCurrent(p, vdd, vth)
}

// TestDelayMatchesReference holds Delay, OnCurrent and NominalDelay to
// the reference bit for bit on every calibrated node, at supplies from
// 0.25 V to 1.20 V in 10 mV steps and threshold shifts from −4 V to
// +4 V in 10 mV steps, wide enough that (Vdd−Vth)/(2nφt) reaches both
// |x| > 35 branches of log1pExp.
func TestDelayMatchesReference(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var above, below int
	for _, node := range tech.Nodes() {
		p := node.Dev
		for i := 0; i <= 95; i++ {
			vdd := 0.25 + 0.01*float64(i)
			if got, want := p.NominalDelay(vdd), referenceDelay(p, vdd, p.Vth0); !same(got, want) {
				t.Errorf("%s @%.2fV: NominalDelay %v, reference %v", node.Name, vdd, got, want)
			}
			for k := -400; k <= 400; k++ {
				vth := p.Vth0 + 0.01*float64(k)
				switch x := (vdd - vth) / (2 * p.N * device.PhiT); {
				case x > 35:
					above++
				case x < -35:
					below++
				}
				if got, want := p.OnCurrent(vdd, vth), referenceOnCurrent(p, vdd, vth); !same(got, want) {
					t.Errorf("%s @%.2fV, Vth %.2fV: OnCurrent %v, reference %v", node.Name, vdd, vth, got, want)
				}
				if got, want := p.Delay(vdd, vth), referenceDelay(p, vdd, vth); !same(got, want) {
					t.Errorf("%s @%.2fV, Vth %.2fV: Delay %v, reference %v", node.Name, vdd, vth, got, want)
				}
			}
		}
	}
	if above == 0 || below == 0 {
		t.Errorf("grid reached x > 35 %d times and x < −35 %d times, want both", above, below)
	}
}
