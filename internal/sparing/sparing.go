// Package sparing implements structural duplication (§4.1): sizing the
// number of spare SIMD functional units needed to tolerate
// variation-induced timing errors at near-threshold voltage, and the
// comparison between global and local spare placement (Appendix D).
//
// The spare search (MinSpares) draws no chips: it reads every trial
// spare count from one simd.SpareSample the caller drew, so a caller
// that also needs other spare counts of the same chips reads them from
// that sample too.
//
// One placement value (Placement: clusters of lanes, each with its own
// spares) covers local, segmented and global sparing, and its coverage
// is exact from binomial laws. The repair units need not be lanes: a
// memory's spare rows are the same model, though internal/sram takes
// its pooled row coverage from stats.BinomialCDF directly.
package sparing

import (
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/stats"
)

// SearchResult reports a spare-count search.
type SearchResult struct {
	Spares  int     // minimal spare count meeting the target, or the sample's MaxSpares+1 if not found
	Found   bool    // false if even MaxSpares did not meet the target
	P99     float64 // 99% FO4 chip delay achieved at Spares (or at MaxSpares)
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

// MinSpares finds the minimal spare count α such that the 99 % FO4
// chip delay of the sampled chips with α spares does not exceed
// targetFO4 (the baseline 99 % FO4 chip delay at nominal voltage, per
// §4.1). The search evaluates a doubling ladder followed by a
// bisection, reading every point from the one sample, so the curve is
// monotone in α. The sample's MaxSpares caps the search (the paper
// reports "> 128" beyond the SIMD width); draw it with
// dp.SpareSampleCtx at the supply of interest.
func MinSpares(sample *simd.SpareSample, targetFO4 float64) SearchResult {
	res := SearchResult{Target: targetFO4, Samples: sample.Chips()}
	limit := sample.MaxSpares()
	// Walk the ladder of candidate spare counts 0, 1, 2, 4, ..., limit
	// to the first one meeting the target.
	lo := -1 // the last failing ladder point
	for a := 0; ; {
		p99 := sample.P99FO4(a)
		if p99 <= targetFO4 {
			res.Found = true
			res.Spares, res.P99 = a, p99
			break
		}
		if a == limit {
			res.Spares, res.P99 = limit+1, p99
			return res
		}
		lo = a
		a = min(max(2*a, 1), limit)
	}

	// Bisect between the last failing and first passing ladder points.
	for res.Spares-lo > 1 {
		mid := (lo + res.Spares) / 2
		if p99 := sample.P99FO4(mid); p99 <= targetFO4 {
			res.Spares, res.P99 = mid, p99
		} else {
			lo = mid
		}
	}
	return res
}

// Placement is a spare-placement policy for repairability analysis:
// Lanes repair units (SIMD lanes, or memory rows) grouped into
// consecutive clusters of ClusterSize, each with SparesPerCluster spares
// that only its own cluster can reach. A cluster with more faults than
// its own spares is unrepairable regardless of idle spares elsewhere.
// When Lanes is not a multiple of ClusterSize the last, shorter cluster
// still gets SparesPerCluster spares. ClusterSize must be positive.
//
// The policies of Appendix D are points of this one family:
//   - local (Synctium): ClusterSize 4, SparesPerCluster 1;
//   - global: one cluster of all lanes (ClusterSize = Lanes), the pool
//     reachable from any lane through the XRAM crossbar, so any faulty
//     lanes are repairable while faults ≤ spares;
//   - segmented: clusters between the two, each pool behind a
//     segment-local crossbar.
type Placement struct {
	Lanes            int
	ClusterSize      int
	SparesPerCluster int
}

// Spares returns the total number of spares the placement uses.
func (pl Placement) Spares() int {
	clusters := (pl.Lanes + pl.ClusterSize - 1) / pl.ClusterSize
	return clusters * pl.SparesPerCluster
}

// Repairable reports whether the set of faulty lane indices can all be
// replaced by spares under this placement.
func (pl Placement) Repairable(faulty []int) bool {
	counts := make(map[int]int)
	for _, lane := range faulty {
		counts[lane/pl.ClusterSize]++
	}
	for _, c := range counts {
		if c > pl.SparesPerCluster {
			return false
		}
	}
	return true
}

// IndependentCoverage returns the probability that a chip whose lanes
// fail independently with probability p is fully repairable under the
// placement, computed exactly from binomial laws (no Monte Carlo).
func (pl Placement) IndependentCoverage(p float64) float64 {
	full := pl.Lanes / pl.ClusterSize
	cov := math.Pow(stats.BinomialCDF(pl.ClusterSize, p, pl.SparesPerCluster), float64(full))
	if rem := pl.Lanes % pl.ClusterSize; rem > 0 {
		cov *= stats.BinomialCDF(rem, p, pl.SparesPerCluster)
	}
	return cov
}

// BurstCoverage estimates by Monte Carlo the probability that a chip is
// repairable when faults arrive as a contiguous burst of the given
// length at a uniformly random start lane, wrapping around the array
// (modeling spatially clustered defects, the failure mode that defeats
// local sparing).
func (pl Placement) BurstCoverage(burstLen int, seed uint64, trials int) float64 {
	if burstLen <= 0 {
		return 1
	}
	r := rng.New(seed)
	ok := 0
	faulty := make([]int, burstLen)
	for t := 0; t < trials; t++ {
		start := r.IntN(pl.Lanes)
		for i := range faulty {
			faulty[i] = (start + i) % pl.Lanes
		}
		if pl.Repairable(faulty) {
			ok++
		}
	}
	return float64(ok) / float64(trials)
}
