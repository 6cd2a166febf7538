// Package sparing implements structural duplication (§4.1): sizing the
// number of spare SIMD functional units needed to tolerate
// variation-induced timing errors at near-threshold voltage, and the
// comparison between global and local spare placement (Appendix D).
//
// Lane sparing is the logic-side repair axis; internal/sram mirrors
// the same placement/coverage model on the memory side as spare-row
// repair (sram.RowPlacement, sram.RowCoverage), and the sramyield
// experiment compares the two at iso-overhead.
package sparing

import (
	"context"
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/stats"
)

// SearchResult reports a spare-count search.
type SearchResult struct {
	Spares  int     // minimal spare count meeting the target, or limit+1 if not found
	Found   bool    // false if even the limit did not meet the target
	P99     float64 // 99% FO4 chip delay achieved at Spares (or at the limit)
	Target  float64 // 99% FO4 chip delay target (baseline at nominal voltage)
	Samples int
}

// String renders the outcome like the paper's Table 1 rows.
func (s SearchResult) String() string {
	if !s.Found {
		return fmt.Sprintf(">%d spares (p99 %.2f FO4 > target %.2f)", s.Spares-1, s.P99, s.Target)
	}
	return fmt.Sprintf("%d spares (p99 %.2f FO4 ≤ target %.2f)", s.Spares, s.P99, s.Target)
}

// MinSpares finds the minimal spare count α such that the 99 % FO4 chip
// delay of dp at supply vdd with α spares does not exceed targetFO4 (the
// baseline 99 % FO4 chip delay at nominal voltage, per §4.1). The search
// evaluates a doubling ladder followed by a bisection, reusing one
// lane-delay sample set throughout so the curve is monotone in α.
// limit caps the search (the paper reports "> 128" beyond the SIMD width).
func MinSpares(dp *simd.Datapath, seed uint64, n int, vdd, targetFO4 float64, limit int) SearchResult {
	res, _ := MinSparesCtx(context.Background(), dp, seed, n, vdd, targetFO4, limit)
	return res
}

// MinSparesCtx is MinSpares with cooperative cancellation: the spare-curve
// evaluations poll ctx between Monte-Carlo worker chunks, and the search
// returns ctx's error as soon as one observes cancellation. The result is
// bit-identical to MinSpares when ctx is never cancelled.
func MinSparesCtx(ctx context.Context, dp *simd.Datapath, seed uint64, n int, vdd, targetFO4 float64, limit int) (SearchResult, error) {
	res := SearchResult{Target: targetFO4, Samples: n}
	// Build the ladder of candidate spare counts: 0, 1, 2, 4, ..., limit.
	var ladder []int
	for a := 0; a <= limit; {
		ladder = append(ladder, a)
		switch {
		case a == 0:
			a = 1
		default:
			a *= 2
		}
	}
	if ladder[len(ladder)-1] != limit {
		ladder = append(ladder, limit)
	}
	curve, err := dp.SpareCurveCtx(ctx, seed, n, vdd, ladder)
	if err != nil {
		return res, err
	}

	// Find the first ladder point meeting the target.
	hitIdx := -1
	for i, p99 := range curve {
		if p99 <= targetFO4 {
			hitIdx = i
			break
		}
	}
	if hitIdx == -1 {
		res.Spares = limit + 1
		res.P99 = curve[len(curve)-1]
		return res, nil
	}
	res.Found = true
	if hitIdx == 0 {
		res.Spares = ladder[0]
		res.P99 = curve[0]
		return res, nil
	}

	// Bisect between the last failing and first passing ladder points.
	lo, hi := ladder[hitIdx-1], ladder[hitIdx] // lo fails, hi passes
	p99hi := curve[hitIdx]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		point, err := dp.SpareCurveCtx(ctx, seed, n, vdd, []int{mid})
		if err != nil {
			return res, err
		}
		p99 := point[0]
		if p99 <= targetFO4 {
			hi, p99hi = mid, p99
		} else {
			lo = mid
		}
	}
	res.Spares = hi
	res.P99 = p99hi
	return res, nil
}

// Placement describes a spare-placement policy for repairability
// analysis: how spare FUs are associated with (clusters of) SIMD lanes.
type Placement interface {
	// Repairable reports whether the set of faulty lane indices can all
	// be replaced by spares under this placement.
	Repairable(faulty []int) bool
	// Spares returns the total number of spare FUs the placement uses.
	Spares() int
	// Name identifies the policy in reports.
	Name() string
}

// Global places all spares in a shared pool reachable from any lane
// through the XRAM crossbar (Appendix D): any faulty lane can be
// replaced while faults ≤ spares.
type Global struct {
	NumSpares int
}

// Name implements Placement.
func (g Global) Name() string { return fmt.Sprintf("global(%d)", g.NumSpares) }

// Spares implements Placement.
func (g Global) Spares() int { return g.NumSpares }

// Repairable implements Placement.
func (g Global) Repairable(faulty []int) bool { return len(faulty) <= g.NumSpares }

// Local groups lanes into fixed clusters of ClusterSize with
// SparesPerCluster spares each (Synctium's scheme is ClusterSize = 4,
// SparesPerCluster = 1). A cluster with more faults than its own spares
// is unrepairable regardless of idle spares elsewhere.
type Local struct {
	Lanes            int
	ClusterSize      int
	SparesPerCluster int
}

// Name implements Placement.
func (l Local) Name() string {
	return fmt.Sprintf("local(%d per %d)", l.SparesPerCluster, l.ClusterSize)
}

// Spares implements Placement.
func (l Local) Spares() int {
	clusters := (l.Lanes + l.ClusterSize - 1) / l.ClusterSize
	return clusters * l.SparesPerCluster
}

// Repairable implements Placement.
func (l Local) Repairable(faulty []int) bool {
	counts := make(map[int]int)
	for _, lane := range faulty {
		counts[lane/l.ClusterSize]++
	}
	for _, c := range counts {
		if c > l.SparesPerCluster {
			return false
		}
	}
	return true
}

// IndependentCoverage returns the probability that a chip whose lanes
// fail independently with probability p is fully repairable under the
// placement, computed exactly from binomial laws (no Monte Carlo).
func IndependentCoverage(pl Placement, lanes int, p float64) float64 {
	switch v := pl.(type) {
	case Global:
		return stats.BinomialCDF(lanes, p, v.NumSpares)
	case Local:
		clusters := lanes / v.ClusterSize
		per := stats.BinomialCDF(v.ClusterSize, p, v.SparesPerCluster)
		cov := math.Pow(per, float64(clusters))
		if rem := lanes % v.ClusterSize; rem > 0 {
			cov *= stats.BinomialCDF(rem, p, v.SparesPerCluster)
		}
		return cov
	case Segmented:
		segments := lanes / v.SegmentSize
		per := stats.BinomialCDF(v.SegmentSize, p, v.SparesPerSegment)
		cov := math.Pow(per, float64(segments))
		if rem := lanes % v.SegmentSize; rem > 0 {
			cov *= stats.BinomialCDF(rem, p, v.SparesPerSegment)
		}
		return cov
	default:
		panic(fmt.Sprintf("sparing: IndependentCoverage: unknown placement %T", pl))
	}
}

// BurstCoverage estimates by Monte Carlo the probability that a chip is
// repairable when faults arrive as a contiguous burst of the given
// length at a uniformly random start lane (modeling spatially clustered
// defects, the failure mode that defeats local sparing). Exact for the
// placements above but kept as MC so arbitrary placements compose.
func BurstCoverage(pl Placement, lanes, burstLen int, seed uint64, trials int) float64 {
	if burstLen <= 0 {
		return 1
	}
	r := rng.New(seed)
	ok := 0
	faulty := make([]int, burstLen)
	for t := 0; t < trials; t++ {
		start := r.IntN(lanes)
		for i := range faulty {
			faulty[i] = (start + i) % lanes
		}
		if pl.Repairable(faulty) {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}

// Segmented is the middle ground between Global and Local: lanes are
// grouped into segments of SegmentSize, each with its own pool of
// SparesPerSegment spares reachable through a segment-local crossbar.
// Larger segments approach Global's burst tolerance at lower routing
// cost than a full 128×128 XRAM; SegmentSize = Lanes recovers Global,
// SegmentSize = ClusterSize with one spare recovers Local.
type Segmented struct {
	Lanes            int
	SegmentSize      int
	SparesPerSegment int
}

// Name implements Placement.
func (s Segmented) Name() string {
	return fmt.Sprintf("segmented(%d per %d)", s.SparesPerSegment, s.SegmentSize)
}

// Spares implements Placement.
func (s Segmented) Spares() int {
	segments := (s.Lanes + s.SegmentSize - 1) / s.SegmentSize
	return segments * s.SparesPerSegment
}

// Repairable implements Placement.
func (s Segmented) Repairable(faulty []int) bool {
	counts := make(map[int]int)
	for _, lane := range faulty {
		counts[lane/s.SegmentSize]++
	}
	for _, c := range counts {
		if c > s.SparesPerSegment {
			return false
		}
	}
	return true
}
