package sram

import (
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// sanitize maps an arbitrary float64 into [lo, hi], rejecting NaN/Inf
// by folding them to lo. Fuzzing explores the parameter space, not the
// IEEE special values — those are covered by explicit unit tests.
func sanitize(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	return lo + math.Mod(math.Abs(x), hi-lo)
}

// FuzzSRAMCellYield asserts, for arbitrary (vdd, sigma scale, die
// shift, margin, op) inputs, the invariants every caller of
// Cell.FailProb relies on: the probability is finite and in [0, 1],
// and it is non-increasing in the budget (the failure law is a valid
// survival function of the timing budget).
func FuzzSRAMCellYield(f *testing.F) {
	f.Add(0.55, 1.0, 0.0, 2.0, false)
	f.Add(0.50, 2.5, 0.03, 3.0, true)
	f.Add(0.60, 0.0, -0.05, 1.0, false)
	f.Add(0.70, 1.7, 0.08, 0.5, true)
	f.Fuzz(func(t *testing.T, vddRaw, scaleRaw, dieRaw, marginRaw float64, write bool) {
		vdd := sanitize(vddRaw, 0.45, 0.95)
		scale := sanitize(scaleRaw, 0, 3)
		die := sanitize(dieRaw, -0.12, 0.12)
		margin := sanitize(marginRaw, 0.3, 6)
		op := OpRead
		if write {
			op = OpWrite
		}
		c := NewCell(tech.N32)
		c.SigmaWID *= scale
		budget := c.Budget(op, vdd, margin)
		p := c.FailProb(op, vdd, budget, die)
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
			t.Fatalf("FailProb(%v, %.3f, margin %.2f, die %+.3f) = %v", op, vdd, margin, die, p)
		}
		// Survival function: a looser budget can only lower the failure
		// probability (CDF monotonicity in the budget axis).
		pLoose := c.FailProb(op, vdd, budget*1.5, die)
		if pLoose > p+1e-9 {
			t.Fatalf("FailProb not monotone in budget: %v at 1×, %v at 1.5× (op %v, vdd %.3f, die %+.3f)",
				p, pLoose, op, vdd, die)
		}
		if q := c.FailProb(op, vdd, math.Inf(1), die); q != 0 {
			t.Fatalf("infinite budget fails with p=%v", q)
		}
	})
}

// FuzzBankCompose asserts the composition layer's invariants for
// arbitrary (cell fail prob, geometry, spares): every derived
// probability stays in [0, 1] with no NaN/Inf, MapYield is insensitive
// to structure order, and stats.BinomialCDF is non-decreasing in k.
func FuzzBankCompose(f *testing.F) {
	f.Add(1e-6, uint16(64), uint16(128), uint8(2))
	f.Add(0.3, uint16(7), uint16(3), uint8(0))
	f.Add(0.999, uint16(256), uint16(512), uint8(8))
	f.Add(0.0, uint16(1), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, pRaw float64, rowsRaw, colsRaw uint16, sparesRaw uint8) {
		p := sanitize(pRaw, 0, 1)
		rows := 1 + int(rowsRaw%512)
		cols := 1 + int(colsRaw%4096)
		spares := int(sparesRaw % 32)

		pRow := RowFailProb(p, cols)
		if math.IsNaN(pRow) || pRow < 0 || pRow > 1 {
			t.Fatalf("RowFailProb(%v, %d) = %v", p, cols, pRow)
		}
		if p > 0 && pRow < p-1e-15 {
			t.Fatalf("row of %d cells fails less often (%v) than one cell (%v)", cols, pRow, p)
		}

		s := Structure{Name: "fuzz", Rows: rows, Cols: cols, SpareRows: spares}
		y := s.Yield(p)
		if math.IsNaN(y) || y < 0 || y > 1 {
			t.Fatalf("Structure.Yield(%v) = %v for %+v", p, y, s)
		}

		m := []Structure{
			s,
			{Name: "b", Rows: 1 + rows/2, Cols: cols, SpareRows: 0},
			{Name: "c", Rows: rows, Cols: 1 + cols/3, SpareRows: spares / 2},
		}
		fwd := MapYield(m, p)
		rev := MapYield([]Structure{m[2], m[0], m[1]}, p)
		if math.IsNaN(fwd) || fwd < 0 || fwd > 1 {
			t.Fatalf("MapYield = %v", fwd)
		}
		if diff := math.Abs(fwd - rev); diff > 1e-12*math.Max(fwd, 1e-300) && diff > 1e-300 {
			t.Fatalf("MapYield order-sensitive: %v vs %v", fwd, rev)
		}

		prev := 0.0
		for k := 0; k <= spares; k++ {
			c := stats.BinomialCDF(rows, pRow, k)
			if math.IsNaN(c) || c < 0 || c > 1 {
				t.Fatalf("BinomialCDF(%d, %v, %d) = %v", rows, pRow, k, c)
			}
			if c < prev-1e-12 {
				t.Fatalf("BinomialCDF not monotone in k: %v at %d after %v", c, k, prev)
			}
			prev = c
		}
	})
}
