// Package yield turns the study's chip-delay distributions into
// parametric-yield numbers: the fraction of manufactured chips that meet
// a clock-period target at a given supply voltage, with or without
// mitigation.
//
// The paper works at a fixed 99 % design point ("the 99 % point of FO4
// chip delay distributions"); this package generalizes that to the full
// yield-vs-frequency trade-off a product team would actually sweep, and
// inverts it: the clock you can ship at a required yield, and the yield
// you get at a required clock.
package yield

import (
	"context"
	"fmt"
	"sort"

	"github.com/ntvsim/ntvsim/internal/simd"
)

// Curve is an empirical yield curve at one operating point: for each
// candidate clock period, the fraction of chips whose (post-repair) chip
// delay fits.
type Curve struct {
	Vdd    float64
	Spares int
	// delays are the sorted Monte-Carlo chip delays in seconds.
	delays []float64
}

// NewCurve samples n chips of dp at supply vdd with the given spare
// count and builds their yield curve. A cancelled ctx stops the sampling
// and returns ctx's error.
func NewCurve(ctx context.Context, dp *simd.Datapath, seed uint64, n int, vdd float64, spares int) (*Curve, error) {
	ds, err := dp.ChipDelaysCtx(ctx, seed, n, vdd, spares)
	if err != nil {
		return nil, err
	}
	sort.Float64s(ds)
	return &Curve{Vdd: vdd, Spares: spares, delays: ds}, nil
}

// N returns the Monte-Carlo sample count behind the curve.
func (c *Curve) N() int { return len(c.delays) }

// At returns the yield at clock period tclk (seconds): the fraction of
// chips with delay ≤ tclk.
func (c *Curve) At(tclk float64) float64 {
	i := sort.SearchFloat64s(c.delays, tclk)
	// SearchFloat64s finds the first index ≥ tclk; advance through ties
	// so chips exactly at the boundary count as passing.
	for i < len(c.delays) && c.delays[i] == tclk {
		i++
	}
	return float64(i) / float64(len(c.delays))
}

// ClockAt returns the shortest clock period achieving at least the given
// yield ∈ (0, 1].
func (c *Curve) ClockAt(y float64) float64 {
	if y <= 0 {
		return c.delays[0]
	}
	if y >= 1 {
		return c.delays[len(c.delays)-1]
	}
	idx := int(y*float64(len(c.delays))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.delays) {
		idx = len(c.delays) - 1
	}
	return c.delays[idx]
}

// Point is one row of a yield comparison.
type Point struct {
	TClk      float64
	Yield     float64
	YieldWith float64 // with mitigation
}

// Compare evaluates base and mitigated yield on a grid of nGrid clock
// periods spanning both curves' supports.
func Compare(base, mitigated *Curve, nGrid int) []Point {
	if nGrid < 2 {
		nGrid = 2
	}
	lo := base.delays[0]
	if mitigated.delays[0] < lo {
		lo = mitigated.delays[0]
	}
	hi := base.delays[len(base.delays)-1]
	if m := mitigated.delays[len(mitigated.delays)-1]; m > hi {
		hi = m
	}
	out := make([]Point, 0, nGrid)
	for i := 0; i < nGrid; i++ {
		t := lo + (hi-lo)*float64(i)/float64(nGrid-1)
		out = append(out, Point{TClk: t, Yield: base.At(t), YieldWith: mitigated.At(t)})
	}
	return out
}

// String summarizes the curve at the paper's 99 % design point.
func (c *Curve) String() string {
	return fmt.Sprintf("yield curve @%.3gV +%d spares: Tclk(99%%)=%.3gs over %d chips",
		c.Vdd, c.Spares, c.ClockAt(0.99), len(c.delays))
}
