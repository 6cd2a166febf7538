package sram

import (
	"math"

	"github.com/ntvsim/ntvsim/internal/stats"
)

// The conditional failure probability exploits the delay monotonicity
// in each transistor's threshold shift: for a fixed shift of one device
// there is a single critical shift of the other at which the access
// delay crosses the budget, found by bisection, and the failure mass
// beyond it is a Gaussian tail. Integrating that tail over the first
// device's WID law (normal-weighted Simpson over ±8σ) gives the exact-to-
// quadrature cell failure probability — no sampling.

// cellRule is the quadrature of FailProb's WID integral: 64-interval
// Simpson over ±8σ. The failure mass sits several σ out, where
// Gauss–Hermite places too few nodes, so the rule keeps its nodes evenly
// spaced.
var cellRule = stats.NormalSimpson(8, 64)

const bisectIters = 52

// bisectCrossing returns the shift at which the increasing delay(x)
// crosses budget, given delay(lo) ≤ budget < delay(hi). A fixed
// iteration count keeps the evaluation branch-free and bit-reproducible
// across platforms.
func bisectCrossing(delay func(float64) float64, budget, lo, hi float64) float64 {
	for i := 0; i < bisectIters; i++ {
		mid := 0.5 * (lo + hi)
		if delay(mid) > budget {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi)
}

// FailProb returns the probability that a single cell misses the timing
// budget (seconds) for the given access at supply vdd, conditional on
// the die-to-die threshold shift die (volts). The two cell transistors
// on the access path carry independent WID shifts on top of die.
func (c Cell) FailProb(op Op, vdd, budget, die float64) float64 {
	mQuadratures.Inc()
	if math.IsInf(budget, 1) {
		return 0
	}
	sigma := c.SigmaWID
	if sigma == 0 {
		if c.Delay(op, vdd, die, die) > budget {
			return 1
		}
		return 0
	}
	// The bracket must contain the budget crossing wherever the WID law
	// has mass; beyond it the tail contribution is below quadrature
	// precision and is closed with the bracket-edge tail.
	bracket := 2 + 8*sigma + math.Abs(die)
	wid := stats.Normal{Mu: 0, Sigma: sigma}

	// tail(first) is P(fail | first device's WID shift): the Gaussian
	// mass of the second device beyond its critical shift. For a read
	// the outer variable is the access shift and the bisected one the
	// pull-down; for a write the outer is the pull-up and the bisected
	// one the access (WriteDelay decreases in the pull-up shift but
	// increases in the access shift, so the access is the monotone
	// bisection axis).
	tail := func(first float64) float64 {
		delay := func(x float64) float64 {
			if op == OpWrite {
				return c.WriteDelay(vdd, die+x, die+first)
			}
			return c.ReadDelay(vdd, die+first, die+x)
		}
		lo, hi := -bracket, bracket
		if delay(lo) > budget {
			return 1 // even the strongest second device misses the budget
		}
		if delay(hi) <= budget {
			return 1 - wid.CDF(hi) // no crossing in-bracket: ~0 tail
		}
		return 1 - wid.CDF(bisectCrossing(delay, budget, lo, hi))
	}

	p := cellRule.Expect(sigma, tail)
	return clamp01(p)
}

func clamp01(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}
