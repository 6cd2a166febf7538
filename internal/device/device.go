// Package device implements the transregional CMOS gate-delay, current
// and leakage models that stand in for the paper's HSPICE device decks.
//
// The on-current uses the EKV-style interpolation
//
//	I_on(Vdd, Vth) ∝ ln²(1 + exp((Vdd − Vth) / (2·n·φt)))
//
// which reduces to the square-law (Vdd−Vth)² in strong inversion and to
// the exponential subthreshold current below Vth, covering the
// super-/near-/sub-threshold regimes with one smooth expression (Zhai et
// al., ISLPED'05). Gate delay is the usual CV/I metric
//
//	τ(Vdd, Vth) = Kd · Vdd / I_on(Vdd, Vth)
//
// so the delay sensitivity to threshold-voltage variation —
// ∂lnτ/∂V_th — grows exponentially as Vdd approaches Vth, which is the
// phenomenon the paper studies.
//
// GateMoments, ChainMoments and ChainConditionalMoments integrate that
// delay over the D2D + WID threshold split with the 24-node
// Gauss–Hermite rule of internal/stats, built once at package init:
// one pass over the WID nodes yields both raw moments, and one pass
// over the D2D nodes integrates both, so no moment call allocates.
package device

import (
	"fmt"
	"math"
)

// PhiT is the thermal voltage kT/q at 300 K, in volts.
const PhiT = 0.02585

// Region classifies an operating voltage relative to the threshold.
type Region int

const (
	// SubThreshold: Vdd < Vth.
	SubThreshold Region = iota
	// NearThreshold: Vth ≤ Vdd < Vth + NearThresholdBand.
	NearThreshold
	// SuperThreshold: Vdd ≥ Vth + NearThresholdBand.
	SuperThreshold
)

// NearThresholdBand is the width of the near-threshold region above Vth,
// in volts. The paper treats 0.5–0.7 V as near-threshold for devices with
// Vth around 0.3–0.45 V; a 300 mV band reproduces that classification.
const NearThresholdBand = 0.30

// String returns the conventional name of the region.
func (r Region) String() string {
	switch r {
	case SubThreshold:
		return "sub-threshold"
	case NearThreshold:
		return "near-threshold"
	case SuperThreshold:
		return "super-threshold"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Params holds the fitted device parameters for one technology node.
// See internal/tech for the calibrated per-node values and the anchors
// they were fitted against.
type Params struct {
	Vth0 float64 // nominal threshold voltage, V
	N    float64 // subthreshold slope factor (dimensionless, ≥ 1)
	Kd   float64 // delay constant: τ = Kd·Vdd/ion, seconds·V⁻¹ scaled

	// Leakage model: I_off ∝ exp((λ·Vdd − Vth)/(n·φt)).
	DIBL   float64 // drain-induced barrier lowering coefficient λ
	IleakK float64 // leakage scale relative to drive strength
}

// Validate reports whether the parameters are physically sensible.
func (p Params) Validate() error {
	switch {
	case !(p.Vth0 > 0 && p.Vth0 < 1.5):
		return fmt.Errorf("device: Vth0 = %g V outside (0, 1.5)", p.Vth0)
	case !(p.N >= 1 && p.N < 3):
		return fmt.Errorf("device: slope factor n = %g outside [1, 3)", p.N)
	case !(p.Kd > 0):
		return fmt.Errorf("device: delay constant Kd = %g must be positive", p.Kd)
	}
	return nil
}

// Region classifies vdd for a device with this threshold voltage.
func (p Params) Region(vdd float64) Region {
	switch {
	case vdd < p.Vth0:
		return SubThreshold
	case vdd < p.Vth0+NearThresholdBand:
		return NearThreshold
	default:
		return SuperThreshold
	}
}

// log1pExp computes ln(1 + e^x) without overflow for large x.
func log1pExp(x float64) float64 {
	if x > 35 {
		return x // e^-35 ≈ 6e-16: below double precision relative to x
	}
	if x < -35 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

// OnCurrent returns the normalized on-current ln²(1+e^((Vdd−Vth)/(2nφt))).
// It is dimensionless; Kd carries the units.
func (p Params) OnCurrent(vdd, vth float64) float64 {
	return onCurrent(p.N, vdd, vth)
}

// onCurrent is OnCurrent as a function of the one field it reads, the
// slope factor n. Delay calls it rather than the method because
// inlining the value-receiver method copies all five fields of Params
// with 8-byte stores and reloads the copy with 16-byte loads that each
// span two of those stores, which store-to-load forwarding cannot
// serve: the stall triples the cost of a gate delay (Go 1.24, amd64).
// Do not fold it back into the method.
func onCurrent(n, vdd, vth float64) float64 {
	l := log1pExp((vdd - vth) / (2 * n * PhiT))
	return l * l
}

// Delay returns the gate delay τ = Kd·Vdd/I_on in seconds for a device
// with threshold voltage vth operating at supply vdd.
func (p Params) Delay(vdd, vth float64) float64 {
	return p.Kd * vdd / onCurrent(p.N, vdd, vth)
}

// NominalDelay returns the gate delay of a nominal (variation-free)
// device at supply vdd. This is the "FO4 delay" unit used to normalize
// chip-delay distributions in the architecture-level experiments.
func (p Params) NominalDelay(vdd float64) float64 {
	return p.Delay(vdd, p.Vth0)
}

// DelaySensitivityVth returns ∂lnτ/∂V_th at (vdd, vth): the relative
// delay change per volt of threshold shift. It grows from a few per volt
// in strong inversion to tens per volt near threshold.
func (p Params) DelaySensitivityVth(vdd, vth float64) float64 {
	x := (vdd - vth) / (2 * p.N * PhiT)
	l := log1pExp(x)
	sig := sigmoid(x)
	return sig / l / (p.N * PhiT)
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// LeakCurrent returns the normalized subthreshold leakage current at
// supply vdd, in the same units as OnCurrent, including DIBL.
func (p Params) LeakCurrent(vdd float64) float64 {
	return p.IleakK * math.Exp((p.DIBL*vdd-p.Vth0)/(p.N*PhiT))
}
