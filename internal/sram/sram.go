// Package sram models 6T SRAM cell read/write timing yield under
// threshold-voltage variation and composes it up to the SODA memory map
// (banked SIMD memory, vector register file, XRAM crosspoint store),
// extending the paper's logic-path analysis to the majority of the chip
// it never modeled.
//
// The cell model is a Shen-style compact drain-current formulation on
// top of the internal/device EKV on-current: a read discharges the
// bitline through the access and pull-down transistors in series, a
// write fights the cross-coupled pull-up through the access transistor,
//
//	τ_read  ∝ Vdd / (I_ax·I_pd / (I_ax + I_pd))
//	τ_write ∝ Vdd / (I_ax − Contention·I_pu)
//
// with each transistor's threshold voltage carrying its own
// within-die (WID) Gaussian shift plus the die-to-die (D2D) shift
// shared by the whole chip — the same D2D+WID split as the logic-path
// models, but with the WID sigma scaled up by SigmaScale because SRAM
// cells use minimum-size devices (Pelgrom: σ_Vth ∝ 1/√(W·L)).
//
// A cell fails an access when its delay exceeds the timing budget
// Margin × nominal delay. Because both the budget and the delay carry
// the same Kd·ReadK (or Kd·WriteK) scale, yields depend only on the
// margin, the threshold geometry and the sigmas — the delay constants
// set reported latencies, not failure probabilities.
//
// docs/SRAM.md derives the model and states the determinism and
// analytic-vs-MC agreement contracts; internal/sweep exposes it as the
// sramreadyield, sramwriteyield and memlogicyield kernels.
package sram

import (
	"math"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// Model constants. They are deliberately package constants rather than
// Spec knobs: the sweep cache keys sweeps by (kernel, grid, seed), so
// every tunable that changed results would have to join the key. See
// docs/SRAM.md for the calibration rationale behind each value.
const (
	// SigmaScale multiplies the logic WID sigma for the minimum-size
	// cell transistors (Pelgrom area scaling: logic gates are drawn
	// several times wider than the 6T cell devices).
	SigmaScale = 1.5

	// DefaultContention is the pull-up to access drive ratio opposing a
	// write. Below ~0.5 the nominal cell always writes; the margin of
	// safety shrinks as the access transistor weakens, and because the
	// drive is a difference of exponentially-varying currents the
	// failure tail fattens quickly as the ratio grows.
	DefaultContention = 0.15

	// DefaultReadMargin and DefaultWriteMargin are the timing budgets in
	// units of the nominal access delay: a cell fails when variation
	// pushes its delay beyond Margin × nominal. The write margin is
	// wider because the subtractive contention drive is far more
	// sensitive to threshold shifts than the series read path.
	DefaultReadMargin  = 2.0
	DefaultWriteMargin = 3.0

	// DefaultSpareRowsPerBank is the repair budget of each SIMD memory
	// bank. The vector register file and XRAM crosspoint store have no
	// spares: register indices and crosspoints are architecturally
	// addressed and cannot be remapped.
	DefaultSpareRowsPerBank = 8

	// LogicMarginFO4 is the logic-path timing budget in nominal FO4
	// units per chain stage: a chip's logic passes when its slowest
	// path beats LogicMarginFO4 × ChainLength × FO4(vdd). Shared by the
	// memlogicyield kernel and the sramyield experiment so both sides
	// of the memory-vs-logic crossover use one budget rule.
	LogicMarginFO4 = 1.4
)

// Service metrics, exposed on GET /metrics.
var (
	mQuadratures = telemetry.Default.Counter("ntvsim_sram_cell_quadratures_total",
		"Conditional cell failure-probability quadratures evaluated (bisection + Gauss integral).")
	mChips = telemetry.Default.Counter("ntvsim_sram_chips_sampled_total",
		"Monte-Carlo chip draws through the SRAM bank-failure sampler.")
	mTables = telemetry.Default.Counter("ntvsim_sram_tables_built_total",
		"Die-shift failure-probability tables built (one per sampler construction; the sweep kernels memoize samplers).")
)

// Op selects the access being timed.
type Op int

const (
	// OpRead times the bitline discharge through access + pull-down.
	OpRead Op = iota
	// OpWrite times the cell flip against pull-up contention.
	OpWrite
)

// String returns "read" or "write".
func (op Op) String() string {
	if op == OpWrite {
		return "write"
	}
	return "read"
}

// Cell is one 6T SRAM cell: the shared device model plus the variation
// split and the write-contention ratio. The delay constants ReadK and
// WriteK scale reported latencies only (yields are margin-relative).
type Cell struct {
	Dev device.Params

	SigmaWID float64 // per-transistor WID threshold sigma, V
	SigmaD2D float64 // die-to-die threshold sigma shared chip-wide, V

	Contention float64 // pull-up / access drive ratio during a write
	ReadK      float64 // read delay scale relative to a logic gate
	WriteK     float64 // write delay scale relative to a logic gate
}

// NewCell builds the calibrated cell for a technology node: the node's
// device parameters with the WID sigma scaled by SigmaScale for the
// minimum-size cell transistors. The D2D sigma is shared with logic
// unscaled — it models chip-wide process shift, not device area.
func NewCell(node tech.Node) Cell {
	return Cell{
		Dev:        node.Dev,
		SigmaWID:   SigmaScale * node.Var.SigmaVthWID,
		SigmaD2D:   node.Var.SigmaVthD2D,
		Contention: DefaultContention,
		ReadK:      3,
		WriteK:     1,
	}
}

// ReadDelay returns the read access time at supply vdd for a cell whose
// access and pull-down transistors carry threshold shifts dAX and dPD
// (volts, relative to the nominal Vth0). The bitline discharges through
// the two devices in series, so the drive is the harmonic combination
// of their on-currents; the delay increases in both shifts.
func (c Cell) ReadDelay(vdd, dAX, dPD float64) float64 {
	iax := c.Dev.OnCurrent(vdd, c.Dev.Vth0+dAX)
	ipd := c.Dev.OnCurrent(vdd, c.Dev.Vth0+dPD)
	if iax == 0 || ipd == 0 {
		return math.Inf(1)
	}
	return c.ReadK * c.Dev.Kd * vdd * (iax + ipd) / (iax * ipd)
}

// WriteDelay returns the write time at supply vdd for threshold shifts
// dAX (access) and dPU (pull-up). The access transistor must overpower
// the cross-coupled pull-up; when variation drives the net current
// non-positive the cell cannot flip at all and the delay is +Inf. The
// delay increases in dAX and decreases in dPU (a weaker pull-up fights
// less).
func (c Cell) WriteDelay(vdd, dAX, dPU float64) float64 {
	iax := c.Dev.OnCurrent(vdd, c.Dev.Vth0+dAX)
	ipu := c.Dev.OnCurrent(vdd, c.Dev.Vth0+dPU)
	drive := iax - c.Contention*ipu
	if drive <= 0 {
		return math.Inf(1)
	}
	return c.WriteK * c.Dev.Kd * vdd / drive
}

// Delay returns the op's access delay for the given device shifts: the
// second shift is the pull-down (read) or pull-up (write) transistor.
func (c Cell) Delay(op Op, vdd, dAX, dOther float64) float64 {
	if op == OpWrite {
		return c.WriteDelay(vdd, dAX, dOther)
	}
	return c.ReadDelay(vdd, dAX, dOther)
}

// NominalDelay returns the variation-free access delay at vdd.
func (c Cell) NominalDelay(op Op, vdd float64) float64 {
	return c.Delay(op, vdd, 0, 0)
}

// Budget returns the op's timing budget at vdd: margin × nominal delay.
func (c Cell) Budget(op Op, vdd, margin float64) float64 {
	return margin * c.NominalDelay(op, vdd)
}
