// Package margin implements voltage margining (§4.2) and the combined
// duplication+margin design-space search (§4.4) for a wide SIMD
// datapath at near-threshold voltage. Frequency margining (§4.3) needs
// no search: Table 4 (internal/experiments) reads it off Figure 4's 99 %
// chip delays, with TargetDelay as the designed clock period.
//
// The common target follows the paper: a 128-wide system operating at a
// near-threshold voltage V must achieve the same *FO4-normalized* 99 %
// chip delay as the baseline achieves at nominal voltage, i.e. an
// absolute delay target of FO4(V) · fo4chipd99@FV seconds. The baseline
// fo4chipd99@FV is dp.P99ChipDelayFO4Ctx at dp.Node.VddNominal with no
// spares.
package margin

import (
	"context"
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/power"
	"github.com/ntvsim/ntvsim/internal/simd"
)

// TargetDelay returns the absolute chip-delay target (seconds) for dp
// operating at supply vdd: the nominal-voltage 99 % FO4 chip delay
// (baselineFO4) re-expressed in seconds at vdd's FO4 delay.
func TargetDelay(dp *simd.Datapath, vdd, baselineFO4 float64) float64 {
	return baselineFO4 * dp.FO4(vdd)
}

// VoltageResult reports a voltage-margin search.
type VoltageResult struct {
	Vdd      float64 // intended operating supply, V
	Margin   float64 // required extra supply V_M, V
	P99      float64 // achieved 99% chip delay at Vdd+V_M, seconds
	Target   float64 // target delay, seconds
	PowerPct float64 // PE power overhead of the margin, percent
}

// String renders the result like a Table 2 row.
func (v VoltageResult) String() string {
	return fmt.Sprintf("Vdd=%.3g V margin=%.1f mV power+%.1f%%", v.Vdd, v.Margin*1e3, v.PowerPct)
}

// VoltageMarginCtx finds the smallest supply increase V_M on the stepV
// grid (e.g. 0.1 mV) such that the 99 % chip delay of dp with the given
// spare count at vdd+V_M meets the absolute delay target. The same seed
// is used at every trial voltage, so the 99 % delay is a smooth,
// monotone function of V_M and bisecting the step count k is exact.
// Trial supplies are vdd + k·stepV, so searches at one vdd share them
// and their chip laws, and the answer's p99 is its own trial's. Every
// trial-voltage evaluation polls ctx between Monte-Carlo worker chunks,
// and the search stops with ctx's error as soon as one observes
// cancellation.
func VoltageMarginCtx(ctx context.Context, dp *simd.Datapath, seed uint64, n int, vdd, target, stepV float64, spares int) (VoltageResult, error) {
	if stepV <= 0 {
		stepV = 0.1e-3
	}
	p99At := func(k int) (float64, error) {
		// P99ChipDelayFO4Ctx reports FO4 units at its own supply; convert
		// back to absolute seconds at vdd+vm for comparison with the
		// target.
		vm := float64(k) * stepV
		p99, err := dp.P99ChipDelayFO4Ctx(ctx, seed, n, vdd+vm, spares)
		if err != nil {
			return 0, err
		}
		return p99 * dp.FO4(vdd+vm), nil
	}
	res := VoltageResult{Vdd: vdd, Target: target}
	p99, err := p99At(0)
	if err != nil {
		return res, err
	}
	if p99 <= target {
		res.P99 = p99
		return res, nil // no margin needed
	}
	// Exponentially widen until the target is met: lo steps miss it, hi
	// steps meet it with p99.
	lo, hi := 0, 8
	for {
		if p99, err = p99At(hi); err != nil {
			return res, err
		}
		if p99 <= target {
			break
		}
		if float64(hi)*stepV > 0.3 { // 300 mV of margin means the model has no solution
			res.Margin, res.P99, res.PowerPct = math.Inf(1), p99, math.Inf(1)
			return res, nil
		}
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		p99mid, err := p99At(mid)
		if err != nil {
			return res, err
		}
		if p99mid <= target {
			hi, p99 = mid, p99mid
		} else {
			lo = mid
		}
	}
	res.Margin = float64(hi) * stepV
	res.P99 = p99
	res.PowerPct = power.MarginPowerOverheadPct(vdd, res.Margin)
	return res, nil
}

// Choice is one point of the combined duplication + margining design
// space (Table 3): a spare count, the voltage margin it still requires,
// and the total power overhead.
type Choice struct {
	Spares   int
	Margin   float64 // V
	PowerPct float64 // total PE power overhead, percent
}

// String renders the choice like a Table 3 row.
func (c Choice) String() string {
	return fmt.Sprintf("%3d spares + %5.1f mV → %.2f%% power", c.Spares, c.Margin*1e3, c.PowerPct)
}

// CombinedCtx evaluates the duplication+margin trade-off at vdd for
// each spare count in spares: the voltage margin still required with
// that many spares, and the summed power overhead. The returned slice is
// in input order; use Best to pick the cheapest. It stops at the first
// spare count whose margin search observes ctx's cancellation and
// returns the choices finished so far with ctx's error.
func CombinedCtx(ctx context.Context, dp *simd.Datapath, seed uint64, n int, vdd, target, stepV float64, spares []int) ([]Choice, error) {
	out := make([]Choice, 0, len(spares))
	for _, a := range spares {
		vr, err := VoltageMarginCtx(ctx, dp, seed, n, vdd, target, stepV, a)
		if err != nil {
			return out, err
		}
		out = append(out, Choice{
			Spares:   a,
			Margin:   vr.Margin,
			PowerPct: power.SparePowerOverheadPct(a) + vr.PowerPct,
		})
	}
	return out, nil
}

// Best returns the minimum-power choice, preferring fewer spares on ties.
func Best(choices []Choice) Choice {
	best := choices[0]
	for _, c := range choices[1:] {
		if c.PowerPct < best.PowerPct {
			best = c
		}
	}
	return best
}
