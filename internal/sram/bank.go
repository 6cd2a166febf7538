package sram

import (
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/soda"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/xram"
)

// WordBits is the SODA data word width: every memory structure stores
// 16-bit words (soda.SIMDMemory and the vector register file are
// uint16 arrays; XRAM crosspoints store one 16-slot configuration bit
// column per lane pair).
const WordBits = 16

// Structure is one repairable memory array: Rows word-lines of Cols
// cells, with SpareRows replacement rows. A row fails when any of its
// cells fails; the structure fails when more rows fail than it has
// spares.
type Structure struct {
	Name      string
	Rows      int
	Cols      int
	SpareRows int
}

// Cells returns the array's cell count (excluding spares).
func (s Structure) Cells() int { return s.Rows * s.Cols }

// Validate reports whether the geometry is usable.
func (s Structure) Validate() error {
	switch {
	case s.Rows <= 0:
		return fmt.Errorf("sram: structure %q: Rows = %d must be positive", s.Name, s.Rows)
	case s.Cols <= 0:
		return fmt.Errorf("sram: structure %q: Cols = %d must be positive", s.Name, s.Cols)
	case s.SpareRows < 0:
		return fmt.Errorf("sram: structure %q: SpareRows = %d must be non-negative", s.Name, s.SpareRows)
	}
	return nil
}

// RowFailProb returns the probability that a row of cols cells contains
// at least one failing cell, 1−(1−p)^cols, computed in log space so
// sub-ppb cell probabilities do not vanish in the subtraction.
func RowFailProb(pCell float64, cols int) float64 {
	return rowFailProb(pCell, math.Log1p(-pCell), cols)
}

// rowFailProb is RowFailProb given logq = Log1p(−pCell), so a caller
// composing several structures at one cell probability takes the
// logarithm once.
func rowFailProb(pCell, logq float64, cols int) float64 {
	switch {
	case pCell <= 0:
		return 0
	case pCell >= 1:
		return 1
	}
	return -math.Expm1(float64(cols) * logq)
}

// Yield returns the probability that the structure is repairable when
// each cell fails independently with probability pCell: at most
// SpareRows of its rows contain a failing cell.
func (s Structure) Yield(pCell float64) float64 {
	return stats.BinomialCDF(s.Rows, RowFailProb(pCell, s.Cols), s.SpareRows)
}

// MapYield returns the probability that every structure in the memory
// map is repairable at the given cell failure probability. Structures
// fail independently (they share the D2D shift through pCell's
// conditioning, which is exactly how Model.Yield composes it), so the
// result is order-insensitive up to floating-point rounding.
func MapYield(structures []Structure, pCell float64) float64 {
	y := 1.0
	for _, s := range structures {
		y *= s.Yield(pCell)
	}
	return y
}

// MapCells returns the total cell count of the map.
func MapCells(structures []Structure) int {
	n := 0
	for _, s := range structures {
		n += s.Cells()
	}
	return n
}

// SODAMemoryMap returns the on-chip memory structures of the SODA-style
// chip the paper studies, derived from the internal/soda and
// internal/xram geometry:
//
//   - Banks SIMD memory banks of BankRows rows × BankLanes 16-bit words
//     (4 × 16 KB), each with spareRows replacement rows;
//   - the vector register file, VRegs entries × Lanes 16-bit words, no
//     spares (register indices are architecturally addressed);
//   - the XRAM crosspoint store, one row per lane × Lanes×Slots
//     configuration bits, no spares (crosspoints cannot be remapped).
func SODAMemoryMap(spareRows int) []Structure {
	m := make([]Structure, 0, soda.Banks+2)
	for b := 0; b < soda.Banks; b++ {
		m = append(m, Structure{
			Name:      fmt.Sprintf("bank%d", b),
			Rows:      soda.BankRows,
			Cols:      soda.BankLanes * WordBits,
			SpareRows: spareRows,
		})
	}
	m = append(m, Structure{
		Name: "vrf",
		Rows: soda.VRegs,
		Cols: soda.Lanes * WordBits,
	})
	m = append(m, Structure{
		Name: "xram",
		Rows: soda.Lanes,
		Cols: soda.Lanes * xram.DefaultSlots,
	})
	return m
}
