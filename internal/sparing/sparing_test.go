package sparing

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func TestMinSparesMonotoneTarget(t *testing.T) {
	dp := simd.New(tech.N90)
	const vdd = 0.55
	const n = 2000
	base := dp.P99ChipDelayFO4(1, n, tech.N90.VddNominal, 0)
	r := MinSpares(dp, 2, n, vdd, base, 128)
	if !r.Found {
		t.Fatalf("no spare count found at %gV: %v", vdd, r)
	}
	if r.Spares < 1 {
		t.Errorf("expected ≥1 spare at 0.55V, got %d", r.Spares)
	}
	// A looser target needs no more spares.
	loose := MinSpares(dp, 2, n, vdd, base*1.01, 128)
	if loose.Found && loose.Spares > r.Spares {
		t.Errorf("looser target needs more spares: %d > %d", loose.Spares, r.Spares)
	}
	// The minimal count is genuinely minimal: one fewer must miss.
	if r.Spares > 0 {
		below := dp.SpareCurve(2, n, vdd, []int{r.Spares - 1})[0]
		if below <= base {
			t.Errorf("spares-1 (%d) already meets target: %v ≤ %v", r.Spares-1, below, base)
		}
	}
}

func TestMinSparesZeroWhenTrivial(t *testing.T) {
	dp := simd.New(tech.N90)
	const n = 1000
	// At nominal voltage against its own p99, zero spares suffice.
	base := dp.P99ChipDelayFO4(3, n, tech.N90.VddNominal, 0)
	r := MinSpares(dp, 3, n, tech.N90.VddNominal, base, 128)
	if !r.Found || r.Spares != 0 {
		t.Errorf("want 0 spares, got %v", r)
	}
}

func TestMinSparesUnreachable(t *testing.T) {
	dp := simd.New(tech.N22)
	const n = 800
	base := dp.P99ChipDelayFO4(4, n, tech.N22.VddNominal, 0)
	r := MinSpares(dp, 4, n, 0.5, base, 32)
	if r.Found {
		t.Errorf("22nm @0.5V should not be fixable with 32 spares: %v", r)
	}
	if r.Spares != 33 {
		t.Errorf("not-found sentinel should be limit+1, got %d", r.Spares)
	}
	if r.String() == "" {
		t.Error("empty render")
	}
}

func TestPlacementRepairable(t *testing.T) {
	g := Global{NumSpares: 2}
	if !g.Repairable([]int{5, 77}) || g.Repairable([]int{1, 2, 3}) {
		t.Error("global repairability wrong")
	}
	l := Local{Lanes: 8, ClusterSize: 4, SparesPerCluster: 1}
	if !l.Repairable([]int{0, 4}) { // one fault per cluster
		t.Error("local should repair one fault per cluster")
	}
	if l.Repairable([]int{0, 1}) { // two faults in cluster 0
		t.Error("local cannot repair two faults in one cluster")
	}
	if l.Spares() != 2 {
		t.Errorf("local spares = %d", l.Spares())
	}
	if g.Name() == "" || l.Name() == "" {
		t.Error("names empty")
	}
}

func TestIndependentCoverageGlobalExact(t *testing.T) {
	g := Global{NumSpares: 1}
	const n = 4
	const p = 0.2
	// P(X ≤ 1), X ~ Bin(4, 0.2) = 0.8^4 + 4·0.2·0.8³ = 0.8192.
	if got := IndependentCoverage(g, n, p); math.Abs(got-0.8192) > 1e-12 {
		t.Errorf("coverage = %v, want 0.8192", got)
	}
}

func TestIndependentCoverageLocalExact(t *testing.T) {
	l := Local{Lanes: 8, ClusterSize: 4, SparesPerCluster: 1}
	const p = 0.1
	per := 0.0
	// P(Bin(4, .1) ≤ 1) = .9^4 + 4·.1·.9³.
	per = math.Pow(0.9, 4) + 4*0.1*math.Pow(0.9, 3)
	want := per * per
	if got := IndependentCoverage(l, 8, p); math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
}

// TestIndependentCoverageCertainLanes pins the point-mass ends: with
// no lane failing every placement covers the chip, and with every lane
// failing none does while it has fewer spares than lanes.
func TestIndependentCoverageCertainLanes(t *testing.T) {
	for _, pl := range []Placement{
		Global{NumSpares: 2},
		Local{Lanes: 128, ClusterSize: 4, SparesPerCluster: 1},
		Segmented{Lanes: 128, SegmentSize: 32, SparesPerSegment: 2},
	} {
		if got := IndependentCoverage(pl, 128, 0); got != 1 {
			t.Errorf("%s: coverage at p = 0 is %v, want 1", pl.Name(), got)
		}
		if got := IndependentCoverage(pl, 128, 1); got != 0 {
			t.Errorf("%s: coverage at p = 1 is %v, want 0", pl.Name(), got)
		}
	}
}

// TestGlobalDominatesLocal: with the same spare budget, global placement
// covers at least as many fault patterns as local — the Appendix D claim.
func TestGlobalDominatesLocal(t *testing.T) {
	f := func(rawP float64) bool {
		p := math.Abs(math.Mod(rawP, 0.2))
		l := Local{Lanes: 128, ClusterSize: 4, SparesPerCluster: 1}
		g := Global{NumSpares: l.Spares()}
		return IndependentCoverage(g, 128, p) >= IndependentCoverage(l, 128, p)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBurstCoverage(t *testing.T) {
	l := Local{Lanes: 128, ClusterSize: 4, SparesPerCluster: 1}
	g := Global{NumSpares: l.Spares()}
	// A burst of 2 always defeats local sparing when it lands inside a
	// cluster (3 of 4 positions) and survives otherwise.
	lc := BurstCoverage(l, 128, 2, 1, 20000)
	if math.Abs(lc-0.25) > 0.02 {
		t.Errorf("local burst-2 coverage = %v, want ≈0.25", lc)
	}
	// Global sparing absorbs any burst up to its budget (32).
	if gc := BurstCoverage(g, 128, 32, 1, 2000); gc != 1 {
		t.Errorf("global burst-32 coverage = %v, want 1", gc)
	}
	if gc := BurstCoverage(g, 128, 33, 1, 2000); gc != 0 {
		t.Errorf("global burst-33 coverage = %v, want 0", gc)
	}
	// Zero-length bursts are trivially covered.
	if BurstCoverage(l, 128, 0, 1, 10) != 1 {
		t.Error("empty burst should be covered")
	}
}

func TestSegmentedBridgesLocalAndGlobal(t *testing.T) {
	const lanes = 128
	local := Local{Lanes: lanes, ClusterSize: 4, SparesPerCluster: 1}
	seg := Segmented{Lanes: lanes, SegmentSize: 32, SparesPerSegment: 8}
	global := Global{NumSpares: 32}
	// All three spend the same spare budget.
	if local.Spares() != 32 || seg.Spares() != 32 || global.Spares() != 32 {
		t.Fatalf("budgets differ: %d, %d, %d", local.Spares(), seg.Spares(), global.Spares())
	}
	for _, p := range []float64{0.005, 0.02, 0.05, 0.1} {
		cl := IndependentCoverage(local, lanes, p)
		cs := IndependentCoverage(seg, lanes, p)
		cg := IndependentCoverage(global, lanes, p)
		if !(cl <= cs+1e-12 && cs <= cg+1e-12) {
			t.Errorf("p=%v: coverage ordering violated: local %v, segmented %v, global %v",
				p, cl, cs, cg)
		}
	}
}

func TestSegmentedRepairable(t *testing.T) {
	s := Segmented{Lanes: 128, SegmentSize: 32, SparesPerSegment: 2}
	if !s.Repairable([]int{0, 1, 40}) { // 2 in segment 0, 1 in segment 1
		t.Error("repairable pattern rejected")
	}
	if s.Repairable([]int{0, 1, 2}) { // 3 in segment 0
		t.Error("over-budget segment accepted")
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

func TestSegmentedBurstCoverage(t *testing.T) {
	// A segment-sized spare pool absorbs bursts up to its budget unless
	// the burst straddles a boundary unluckily; coverage must sit
	// between local's and global's.
	const lanes = 128
	local := Local{Lanes: lanes, ClusterSize: 4, SparesPerCluster: 1}
	seg := Segmented{Lanes: lanes, SegmentSize: 32, SparesPerSegment: 8}
	global := Global{NumSpares: 32}
	for _, blen := range []int{4, 8, 12} {
		cl := BurstCoverage(local, lanes, blen, 1, 4000)
		cs := BurstCoverage(seg, lanes, blen, 1, 4000)
		cg := BurstCoverage(global, lanes, blen, 1, 4000)
		if !(cl <= cs+0.02 && cs <= cg+0.02) {
			t.Errorf("burst %d: ordering violated: %v, %v, %v", blen, cl, cs, cg)
		}
	}
	// Bursts within one segment's budget are always covered.
	if c := BurstCoverage(seg, lanes, 8, 2, 2000); c < 0.99 {
		t.Errorf("burst-8 coverage %v, want ≈1 (8 spares per 32-lane segment)", c)
	}
}
