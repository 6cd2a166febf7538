package sram

import (
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/stats"
)

// RowPlacement mirrors internal/sparing's Placement for the row-repair
// axis: how spare rows are associated with (banks of) memory rows. The
// same repairability question the lane model answers for functional
// units — "can this set of faulty indices all be replaced?" — applies
// to word-lines, with bank boundaries playing the role of clusters.
type RowPlacement interface {
	// Repairable reports whether the set of faulty row indices can all
	// be remapped to spare rows under this placement.
	Repairable(faulty []int) bool
	// Spares returns the total number of spare rows the placement uses.
	Spares() int
	// Name identifies the policy in reports.
	Name() string
}

// PooledRows shares one pool of spare rows across the whole array: any
// faulty row can be remapped while faults ≤ spares (the row analogue of
// sparing.Global).
type PooledRows struct {
	SpareRows int
}

// Name implements RowPlacement.
func (p PooledRows) Name() string { return fmt.Sprintf("pooled(%d)", p.SpareRows) }

// Spares implements RowPlacement.
func (p PooledRows) Spares() int { return p.SpareRows }

// Repairable implements RowPlacement.
func (p PooledRows) Repairable(faulty []int) bool { return len(faulty) <= p.SpareRows }

// BankedRows gives each bank of RowsPerBank consecutive rows its own
// SparesPerBank spare rows (the row analogue of sparing.Local, and the
// policy SODAMemoryMap composes: each SIMD memory bank repairs only
// itself). A bank with more faulty rows than its own spares is
// unrepairable regardless of idle spares elsewhere.
type BankedRows struct {
	Banks         int
	RowsPerBank   int
	SparesPerBank int
}

// Name implements RowPlacement.
func (b BankedRows) Name() string {
	return fmt.Sprintf("banked(%d per %d×%d)", b.SparesPerBank, b.Banks, b.RowsPerBank)
}

// Spares implements RowPlacement.
func (b BankedRows) Spares() int { return b.Banks * b.SparesPerBank }

// Repairable implements RowPlacement.
func (b BankedRows) Repairable(faulty []int) bool {
	counts := make(map[int]int)
	for _, row := range faulty {
		counts[row/b.RowsPerBank]++
	}
	for _, c := range counts {
		if c > b.SparesPerBank {
			return false
		}
	}
	return true
}

// RowCoverage returns the probability that an array of rows word-lines,
// each failing independently with probability pRow, is fully repairable
// under the placement — exactly from binomial laws, no Monte Carlo
// (mirroring sparing.IndependentCoverage on the lane axis).
func RowCoverage(pl RowPlacement, rows int, pRow float64) float64 {
	switch v := pl.(type) {
	case PooledRows:
		return stats.BinomialCDF(rows, pRow, v.SpareRows)
	case BankedRows:
		full := rows / v.RowsPerBank
		per := stats.BinomialCDF(v.RowsPerBank, pRow, v.SparesPerBank)
		cov := math.Pow(per, float64(full))
		if rem := rows % v.RowsPerBank; rem > 0 {
			cov *= stats.BinomialCDF(rem, pRow, v.SparesPerBank)
		}
		return cov
	default:
		panic(fmt.Sprintf("sram: RowCoverage: unknown placement %T", pl))
	}
}
