package ssta

import (
	"math"
	"sort"
)

// Table is the sampling view of a Law: its path, lane and chip CDFs
// tabulated at tableKnots delays across the law's quantile bracket,
// inverted by guided search and linear interpolation. Monte-Carlo lane
// and chip draws, importance-sampling quantile maps and the sampled
// tail kernels' targets all push their uniforms through it, so every
// estimator reads the one law the closed-form accessors evaluate. A
// Table is immutable and safe for concurrent use.
type Table struct {
	x                []float64 // delay knots, seconds, ascending
	path, lane, chip column    // the law's PathCDF, LaneCDF and ChipCDF at x

	// ordered holds when the delay knots strictly increase from a
	// non-negative origin. With a guided column it is the condition
	// under which MaxLane skips lanes and ChipFloor censors draws.
	ordered bool
}

// tableKnots is the delay-grid resolution of a Table. The chip p99
// needs the lane CDF resolved to ~1e-4; 1024 knots across the law's
// bracket resolve it well below the Monte-Carlo noise floor (the simd
// KS tests against gate-level sampling validate this).
const tableKnots = 1024

// Table returns the law's sampling view, tabulating it on the first
// call; later calls, from any goroutine, share that one table.
func (l *Law) Table() *Table {
	l.once.Do(func() { l.table = l.tabulate() })
	return l.table
}

// tabulate evaluates the path survival S once per knot and derives the
// three columns from it exactly as PathCDF, LaneCDF and ChipCDF do —
// 1−S and exp(n·log1p(−S)) — so the upper tail keeps the relative
// precision the survival domain gives it.
func (l *Law) tabulate() *Table {
	x := make([]float64, tableKnots)
	path := make([]float64, tableKnots)
	lane := make([]float64, tableKnots)
	chip := make([]float64, tableKnots)
	for k := range x {
		x[k] = l.lo + (l.hi-l.lo)*float64(k)/float64(tableKnots-1)
		s := l.PathSurvival(x[k])
		path[k] = 1 - s
		if s < 1 {
			ls := math.Log1p(-s)
			lane[k] = math.Exp(float64(l.paths) * ls)
			chip[k] = math.Exp(float64(l.paths*l.lanes) * ls)
		}
	}
	t := &Table{x: x, path: newColumn(path), lane: newColumn(lane), chip: newColumn(chip)}
	t.ordered = x[0] >= 0
	for k := 1; k < len(x); k++ {
		if !(x[k] > x[k-1]) {
			t.ordered = false
		}
	}
	return t
}

// Path returns the path delay (seconds) at uniform u.
func (t *Table) Path(u float64) float64 { return t.path.invert(t.x, u) }

// Lane returns the lane delay (seconds) at uniform u.
func (t *Table) Lane(u float64) float64 { return t.lane.invert(t.x, u) }

// Chip returns the zero-spare chip delay (seconds) at uniform u: the
// tabulated chip quantile function, monotone in u. Evaluating it is one
// guide-table lookup and a binary search inside the bracket it gives,
// with no allocation.
func (t *Table) Chip(u float64) float64 { return t.chip.invert(t.x, u) }

// guideCells is the resolution of a column's guide table.
const guideCells = 1024

// column is one tabulated CDF of a delay law with its guide table:
// guide[g] = sort.SearchFloat64s(f, g/guideCells). On a non-decreasing
// column the first knot f[i] ≥ u lies between guide[g] and guide[g+1]
// for g = ⌊u·guideCells⌋, so inverting u searches that bracket — one
// or two knots across the body of the law, wider only in a far tail
// where one guide cell spans many knots — and finds exactly the index
// a binary search over the whole column returns. A column that is not
// non-decreasing gets no guide and keeps the whole-column search. Its
// methods take a pointer: a value receiver copies the six-word struct
// on every inversion.
type column struct {
	f     []float64
	guide []uint16 // nil: f is not non-decreasing
}

func newColumn(f []float64) column {
	for i := 1; i < len(f); i++ {
		if !(f[i] >= f[i-1]) {
			return column{f: f}
		}
	}
	g := make([]uint16, guideCells)
	for j := range g {
		g[j] = uint16(sort.SearchFloat64s(f, float64(j)/guideCells))
	}
	return column{f: f, guide: g}
}

// search returns sort.SearchFloat64s(c.f, u) for a guided column and
// u ∈ [0, 1). With g = ⌊u·guideCells⌋, g/guideCells ≤ u exactly (the
// scaling is by a power of two) and u < (g+1)/guideCells, so the answer
// is at least guide[g] and at most guide[g+1] (len(f) past the last
// cell); the loop is the binary search restricted to that bracket.
func (c *column) search(u float64) int {
	g := int(u * guideCells)
	lo, hi := int(c.guide[g]), len(c.f)
	if g+1 < guideCells {
		hi = int(c.guide[g+1])
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.f[m] < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// invert is invert(x, c.f, u), searched inside the guide's bracket
// when the column has a guide and u lies in [0, 1); NaN and
// out-of-range u take the whole-column search.
func (c *column) invert(x []float64, u float64) float64 {
	if c.guide == nil || !(u >= 0 && u < 1) {
		return invert(x, c.f, u)
	}
	return interp(x, c.f, c.search(u), u)
}

// invert samples the delay at CDF value u from the table by binary
// search and linear interpolation.
func invert(x, f []float64, u float64) float64 {
	return interp(x, f, sort.SearchFloat64s(f, u), u)
}

// interp interpolates the delay at CDF value u inside grid interval i,
// the index the search for u in f returned.
func interp(x, f []float64, i int, u float64) float64 {
	switch {
	case i <= 0:
		return x[0]
	case i >= len(f):
		return x[len(x)-1]
	}
	f0, f1 := f[i-1], f[i]
	if f1 == f0 {
		return x[i]
	}
	return x[i-1] + (x[i]-x[i-1])*(u-f0)/(f1-f0)
}

// MaxLane returns the slowest of the lanes drawn at the uniforms us,
// every one in [0, 1): the max of Lane(u) over us. maxU is the largest
// of the uniforms, which the caller tracks while drawing them. When the
// lane column is guided and the knots are ordered, MaxLane inverts only
// the lanes that can reach that max. Let i be the grid interval of
// maxU. Interpolation is monotone inside an interval and neighbouring
// intervals disagree by at most an ulp at their shared knot, so a lane
// with u ≤ lane.f[i−2] lands at most an ulp above x[i−2], which is no
// more than x[i−1], itself no more than maxU's delay. Such lanes cannot
// change the max and are skipped: typically one to three inversions
// instead of one per lane, in a single pass over us.
func (t *Table) MaxLane(us []float64, maxU float64) float64 {
	lane := &t.lane
	if !t.ordered || lane.guide == nil {
		worst := math.Inf(-1)
		for _, u := range us {
			if d := t.Lane(u); d > worst {
				worst = d
			}
		}
		return worst
	}
	floor := math.Inf(-1)
	if i := lane.search(maxU); i >= 2 {
		floor = lane.f[i-2]
	}
	worst := math.Inf(-1)
	for _, u := range us {
		if u > floor {
			if d := interp(t.x, lane.f, lane.search(u), u); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// ChipFloor returns the censoring floor of the chip column at u: a
// level at or below which every uniform v has Chip(v) ≤ Chip(u), so an
// estimator that only asks whether a draw lands above Chip(u) need not
// invert it. With i the index the search for u in the chip column
// returns, the floor is chip.f[i−2], by MaxLane's two-knot argument:
// such a v inverts to at most an ulp above x[i−2], no more than x[i−1],
// and Chip(u) is at least x[i−1]. ChipFloor returns −∞, censoring
// nothing, when the chip column is not non-decreasing (it has no
// guide), the knots are not ordered, or i < 2.
func (t *Table) ChipFloor(u float64) float64 {
	chip := &t.chip
	if !t.ordered || chip.guide == nil {
		return math.Inf(-1)
	}
	if i := sort.SearchFloat64s(chip.f, u); i >= 2 {
		return chip.f[i-2]
	}
	return math.Inf(-1)
}
