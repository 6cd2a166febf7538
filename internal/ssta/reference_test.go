package ssta

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// referenceQuantile is the quantile solver as the law shipped it before
// the certified bracket: forty-odd plain bisection steps on the path
// survival, each one a pass over the mixture. It is kept as the oracle
// the certified solver must match bit for bit.
func referenceQuantile(l *Law, p float64, n int) float64 {
	if math.IsNaN(p) || p <= 0 {
		return l.lo
	}
	if p >= 1 {
		return l.hi
	}
	// Target path survival: 1 − p^(1/n), computed without cancellation.
	target := -math.Expm1(math.Log(p) / float64(n))
	lo, hi := l.lo, l.hi
	for i := 0; i < 200 && hi-lo > 0; i++ {
		mid := 0.5 * (lo + hi)
		if l.PathSurvival(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*math.Max(math.Abs(lo), math.Abs(hi)) {
			break
		}
	}
	return 0.5 * (lo + hi)
}

var stdNormal = stats.Normal{Mu: 0, Sigma: 1}

// oracleLevels are the quantile levels the solver is held to the
// oracle at: the clamped and degenerate inputs, the lower tail where
// the target path survival is within 1e-6 of 1, the median, the
// paper's p99, the 3σ–6σ tail-yield targets and the last two doubles
// below 1.
var oracleLevels = []float64{
	0, math.NaN(), 1e-300, 1e-6, 0.5, 0.99,
	stdNormal.CDF(3), stdNormal.CDF(4), stdNormal.CDF(5), stdNormal.CDF(6),
	1 - 1e-14, math.Nextafter(1, 0), 1,
}

// checkOracle fails t unless the law's single-path, lane and chip
// quantiles equal the oracle's bit for bit at p.
func checkOracle(t *testing.T, name string, law *Law, p float64) {
	t.Helper()
	lane, chip := law.paths, law.paths*law.lanes
	for _, n := range []int{1, lane, chip} {
		want := referenceQuantile(law, p, n)
		got := law.quantileBisect(p, n)
		switch n {
		case lane:
			got = law.LaneQuantile(p)
		case chip:
			got = law.ChipQuantile(p)
		}
		if !sameBits(got, want) {
			t.Errorf("%s p=%v n=%d: quantile %v (%#x), oracle %v (%#x)",
				name, p, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestQuantileMatchesReference: on every calibrated node from 0.30 V to
// 1.10 V, on the zero-D2D law of TestLawDegenerateD2D and on a law
// with no variation at all, the certified solver returns exactly the
// oracle's bits at every oracle level.
func TestQuantileMatchesReference(t *testing.T) {
	for _, node := range tech.Nodes() {
		node := node
		t.Run(node.Name, func(t *testing.T) {
			t.Parallel()
			for _, vdd := range vddSteps(0.30, 1.10, 0.10) {
				law := NewLaw(node.Dev, node.Var, vdd, tech.ChainLength, testPaths, testLanes)
				for _, p := range oracleLevels {
					checkOracle(t, fmt.Sprintf("@%.2fV", vdd), law, p)
				}
			}
		})
	}
	noD2D := tech.N45.Var
	noD2D.SigmaVthD2D, noD2D.SigmaMulD2D = 0, 0
	degenerate := NewLaw(tech.N45.Dev, noD2D, 0.55, tech.ChainLength, testPaths, testLanes)
	flat := NewLaw(tech.N45.Dev, scaledVariation(tech.N45.Var, 0), 0.55, tech.ChainLength, testPaths, testLanes)
	for _, p := range oracleLevels {
		checkOracle(t, "no D2D", degenerate, p)
		checkOracle(t, "no variation", flat, p)
	}
}

// FuzzLawQuantile holds the certified solver to the oracle bit for bit
// on each calibrated node with its variation scaled ½× to 2×, its
// supply anywhere in 0.30–1.10 V, any level p = Φ(z) and n one path, a
// lane's paths or the chip's.
func FuzzLawQuantile(f *testing.F) {
	f.Add(uint8(0), uint16(21845), uint16(16384), 2.326, uint8(2))
	f.Add(uint8(1), uint16(0), uint16(0), 6.0, uint8(2))
	f.Add(uint8(2), uint16(65535), uint16(65535), -4.0, uint8(1))
	f.Add(uint8(3), uint16(43690), uint16(8192), 0.0, uint8(0))
	f.Add(uint8(3), uint16(32768), uint16(32768), 8.5, uint8(0))
	f.Fuzz(func(t *testing.T, ni uint8, scale, supply uint16, z float64, ns uint8) {
		nodes := tech.Nodes()
		node := nodes[int(ni)%len(nodes)]
		s := 0.5 + 1.5*float64(scale)/math.MaxUint16
		vdd := 0.3 + 0.8*float64(supply)/math.MaxUint16
		law := NewLaw(node.Dev, scaledVariation(node.Var, s), vdd, tech.ChainLength, testPaths, testLanes)
		n := []int{1, testPaths, testPaths * testLanes}[int(ns)%3]
		p := stdNormal.CDF(z)
		if got, want := law.quantileBisect(p, n), referenceQuantile(law, p, n); !sameBits(got, want) {
			t.Fatalf("%s σ×%g vdd %g p=%v n=%d: quantile %v, oracle %v", node.Name, s, vdd, p, n, got, want)
		}
	})
}

// countingMixture counts a law's mixture passes: every path survival
// and every fused survival-and-density evaluation.
type countingMixture struct {
	*Law
	passes int
}

func (c *countingMixture) PathSurvival(x float64) float64 {
	c.passes++
	return c.Law.PathSurvival(x)
}

func (c *countingMixture) survivalDensity(x float64) (s, f float64) {
	c.passes++
	return c.Law.survivalDensity(x)
}

// passesFor solves the chip p-quantile of law through a counting view
// and returns the number of mixture passes it took, failing t unless
// the answer equals ChipQuantile's and the oracle's bit for bit.
func passesFor(t *testing.T, law *Law, p float64) int {
	t.Helper()
	c := &countingMixture{Law: law}
	n := law.paths * law.lanes
	target := -math.Expm1(math.Log(p) / float64(n))
	got := bisectSurvival(c, law.lo, law.hi, target, law.PathMoments())
	if want := referenceQuantile(law, p, n); !sameBits(got, want) || !sameBits(got, law.ChipQuantile(p)) {
		t.Fatalf("counted solve %v, ChipQuantile %v, oracle %v", got, law.ChipQuantile(p), want)
	}
	return c.passes
}

// TestQuantilePasses pins the solver's cost in mixture passes rather
// than time: on every calibrated node from 0.40 V to 0.75 V, at the
// median, the paper's p99 and the 3σ–6σ tail-yield targets, no chip
// quantile takes more than 16 passes and the median solve at most 12,
// where the plain bisection takes 40 or 41.
func TestQuantilePasses(t *testing.T) {
	levels := []float64{0.5, 0.99, stdNormal.CDF(3), stdNormal.CDF(4), stdNormal.CDF(5), stdNormal.CDF(6)}
	var passes []int
	for _, node := range tech.Nodes() {
		for _, vdd := range vddSteps(0.40, 0.75, 0.05) {
			law := NewLaw(node.Dev, node.Var, vdd, tech.ChainLength, testPaths, testLanes)
			for _, p := range levels {
				k := passesFor(t, law, p)
				if k > 16 {
					t.Errorf("%s @%.2fV p=%v: %d mixture passes, want ≤ 16", node.Name, vdd, p, k)
				}
				passes = append(passes, k)
			}
		}
	}
	sort.Ints(passes)
	if med := passes[len(passes)/2]; med > 12 {
		t.Errorf("median %d mixture passes per chip quantile, want ≤ 12 (all: %v)", med, passes)
	}
	t.Logf("mixture passes per chip quantile: min %d, median %d, max %d over %d solves",
		passes[0], passes[len(passes)/2], passes[len(passes)-1], len(passes))
}

// TestQuantileFallback: where no bracket can be certified — a target
// path survival within η of 1, a law without within-die variation,
// whose components are steps with no finite density, or one without
// any variation, whose bracket is a single point — the solver runs the
// plain loop and still answers the oracle's bits.
func TestQuantileFallback(t *testing.T) {
	node := tech.N22
	noWID := node.Var
	noWID.SigmaVthWID, noWID.SigmaMulWID = 0, 0
	for _, tc := range []struct {
		name string
		law  *Law
		p    float64
		n    int
	}{
		{"target near 1", LawFor(node.Dev, node.Var, 0.5, tech.ChainLength, testPaths, testLanes), 1e-300, 1},
		{"no WID variation", NewLaw(node.Dev, noWID, 0.5, tech.ChainLength, testPaths, testLanes), 0.99, testPaths * testLanes},
		{"no variation", NewLaw(node.Dev, scaledVariation(node.Var, 0), 0.5, tech.ChainLength, testPaths, testLanes), 0.99, testPaths},
	} {
		target := -math.Expm1(math.Log(tc.p) / float64(tc.n))
		if _, _, ok := certify(tc.law, tc.law.lo, tc.law.hi, target, tc.law.PathMoments()); ok {
			t.Errorf("%s: certified a bracket", tc.name)
		}
		if got, want := tc.law.quantileBisect(tc.p, tc.n), referenceQuantile(tc.law, tc.p, tc.n); !sameBits(got, want) {
			t.Errorf("%s: quantile %v, oracle %v", tc.name, got, want)
		}
	}
}
