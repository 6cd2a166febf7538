package sram

import (
	"context"
	"math"

	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// Model ties a cell to a memory map and the timing margins: everything
// needed to answer "does this die's memory work at this voltage".
type Model struct {
	Cell Cell
	Map  []Structure

	ReadMargin  float64 // read budget in units of the nominal read delay
	WriteMargin float64 // write budget in units of the nominal write delay
}

// New returns the default model for a node: the calibrated cell and the
// SODA memory map with the default spare-row budget.
func New(node tech.Node) Model {
	return Model{
		Cell:        NewCell(node),
		Map:         SODAMemoryMap(DefaultSpareRowsPerBank),
		ReadMargin:  DefaultReadMargin,
		WriteMargin: DefaultWriteMargin,
	}
}

// WithSpareRows returns a copy of the model whose SIMD memory banks
// carry the given spare-row budget instead of the default.
func (m Model) WithSpareRows(spareRows int) Model {
	m.Map = SODAMemoryMap(spareRows)
	return m
}

func (m Model) margin(op Op) float64 {
	if op == OpWrite {
		return m.WriteMargin
	}
	return m.ReadMargin
}

// Budget returns the op's timing budget at vdd, in seconds.
func (m Model) Budget(op Op, vdd float64) float64 {
	return m.Cell.Budget(op, vdd, m.margin(op))
}

// chipRule is the quadrature of Yield's die-to-die integral:
// 160-interval Simpson over ±8σ, evenly spaced for the same tail reason
// as cellRule.
var chipRule = stats.NormalSimpson(8, 160)

// Yield returns the analytic chip-level memory yield for the access at
// supply vdd: the probability that every structure in the map is
// repairable, integrating the exact conditional cell failure
// probability over the die-to-die threshold law. This is the SSTA twin
// of the Monte-Carlo sampler — same estimand, no sampling, no seed.
func (m Model) Yield(op Op, vdd float64) float64 {
	budget := m.Budget(op, vdd)
	y := chipRule.Expect(m.Cell.SigmaD2D, func(die float64) float64 {
		return MapYield(m.Map, m.Cell.FailProb(op, vdd, budget, die))
	})
	return clamp01(y)
}

// tablePoints is the die-shift resolution of the sampler's
// failure-probability table: 257 points over ±8σ places grid points
// every σ/16, far below the scale on which the conditional probability
// varies.
const tablePoints = 257

// ChipSampler draws whole chips: one die-to-die threshold shift, then
// per-structure failing-row counts from the conditional cell law. The
// conditional probability is interpolated from a table built once at
// construction, so per-chip cost is a handful of uniform draws — cheap
// enough for the sweep engine's six-figure sample counts.
//
// A sampler is immutable after construction and safe for concurrent
// use; Sample draws all randomness from the caller's stream, so
// determinism follows the montecarlo per-sample substream contract.
type ChipSampler struct {
	m      Model
	op     Op
	vdd    float64
	sigma  float64 // D2D sigma
	lo, dx float64 // table origin and spacing (unused when sigma == 0)
	table  []float64
}

// NewSampler builds the chip sampler for one (op, vdd) point,
// tabulating the conditional cell failure probability over ±8σ of the
// die-to-die law.
func (m Model) NewSampler(op Op, vdd float64) *ChipSampler {
	mTables.Inc()
	s := &ChipSampler{m: m, op: op, vdd: vdd, sigma: m.Cell.SigmaD2D}
	budget := m.Budget(op, vdd)
	if s.sigma == 0 {
		s.table = []float64{m.Cell.FailProb(op, vdd, budget, 0)}
		return s
	}
	s.lo = -8 * s.sigma
	s.dx = 16 * s.sigma / float64(tablePoints-1)
	s.table = make([]float64, tablePoints)
	for i := range s.table {
		s.table[i] = m.Cell.FailProb(op, vdd, budget, s.lo+float64(i)*s.dx)
	}
	return s
}

// cellProb interpolates the tabulated conditional failure probability
// at the die shift, clamping to the table edges (beyond ±8σ the
// Gaussian mass is below double precision).
func (s *ChipSampler) cellProb(die float64) float64 {
	if s.sigma == 0 {
		return s.table[0]
	}
	t := (die - s.lo) / s.dx
	switch {
	case t <= 0:
		return s.table[0]
	case t >= float64(len(s.table)-1):
		return s.table[len(s.table)-1]
	}
	i := int(t)
	frac := t - float64(i)
	return s.table[i] + frac*(s.table[i+1]-s.table[i])
}

// Sample draws one chip and returns 1 if every structure in the map is
// repairable, else 0 — the yield indicator the sweep kernels average.
// It reads the chip's row law once, Log1p(−p) for the cell probability
// p shared by every structure, and walks each structure's failing-row
// count only as far as the repair decision needs: its value is the one
// a full inversion of every count would give.
func (s *ChipSampler) Sample(r *rng.Stream) float64 {
	mChips.Inc()
	die := r.Gauss(0, s.sigma)
	p := s.cellProb(die)
	logq := math.Log1p(-p)
	for _, st := range s.m.Map {
		if binomialExceeds(r.Float64(), st.Rows, rowFailProb(p, logq, st.Cols), st.SpareRows) {
			return 0
		}
	}
	return 1
}

// YieldPctCtx returns the Monte-Carlo memory yield: the percentage of
// n chips, drawn from seed by Sample, whose memory map is repairable. A
// cancelled ctx stops the sampling and returns ctx's error.
func (s *ChipSampler) YieldPctCtx(ctx context.Context, seed uint64, n int) (float64, error) {
	xs, err := montecarlo.SampleCtx(ctx, seed, n, s.Sample)
	if err != nil {
		return 0, err
	}
	return 100 * stats.Mean(xs), nil
}

// binomialExceeds reports whether the Bin(n, p) draw at the uniform u
// exceeds m: the inversion walks the pmf in its recursive form from
// the high-mass end, drawing the complement for p > ½ so that the
// starting pmf(0) = (1−p)^n is representable, and stops as soon as the
// answer is known — at m+1, or at n−m in the complement branch.
func binomialExceeds(u float64, n int, p float64, m int) bool {
	switch {
	case n <= 0 || p <= 0:
		return 0 > m
	case p >= 1:
		return n > m
	case p > 0.5:
		// The draw is n − k for k the complement law's draw at 1−u,
		// and n − k > m exactly when k < n−m.
		return binomialWalk(1-u, n, 1-p, n-m) < n-m
	}
	return binomialWalk(u, n, p, m+1) > m
}

// binomialWalk inverts a Bin(n, p) law, 0 < p ≤ ½, at the uniform u by
// walking the pmf, but stops once the count reaches stop: it returns
// min(draw, stop) for stop ≥ 0, and 0 for a negative stop.
func binomialWalk(u float64, n int, p float64, stop int) int {
	q := 1 - p
	pmf := math.Pow(q, float64(n))
	cdf := pmf
	k := 0
	for cdf < u && k < n && k < stop {
		pmf *= float64(n-k) / float64(k+1) * p / q
		k++
		cdf += pmf
	}
	return k
}
