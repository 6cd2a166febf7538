package sparing

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// baseline is the nominal-voltage 99 % FO4 chip delay of dp with no
// spares, under context.Background(), which never cancels.
func baseline(t *testing.T, dp *simd.Datapath, seed uint64, n int) float64 {
	t.Helper()
	base, err := dp.P99ChipDelayFO4Ctx(context.Background(), seed, n, dp.Node.VddNominal, 0)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// minSpares draws n chips of dp at vdd with room for limit spares,
// under context.Background(), and runs MinSpares over them.
func minSpares(t *testing.T, dp *simd.Datapath, seed uint64, n int, vdd, target float64, limit int) SearchResult {
	t.Helper()
	sample, err := dp.SpareSampleCtx(context.Background(), seed, n, vdd, limit)
	if err != nil {
		t.Fatal(err)
	}
	return MinSpares(sample, target)
}

func TestMinSparesMonotoneTarget(t *testing.T) {
	dp := simd.New(tech.N90)
	const vdd = 0.55
	const n = 2000
	base := baseline(t, dp, 1, n)
	r := minSpares(t, dp, 2, n, vdd, base, 128)
	if !r.Found {
		t.Fatalf("no spare count found at %gV: %v", vdd, r)
	}
	if r.Spares < 1 {
		t.Errorf("expected ≥1 spare at 0.55V, got %d", r.Spares)
	}
	// A looser target needs no more spares.
	loose := minSpares(t, dp, 2, n, vdd, base*1.01, 128)
	if loose.Found && loose.Spares > r.Spares {
		t.Errorf("looser target needs more spares: %d > %d", loose.Spares, r.Spares)
	}
	// The minimal count is genuinely minimal: one fewer must miss.
	if r.Spares > 0 {
		below, err := dp.P99ChipDelayFO4Ctx(context.Background(), 2, n, vdd, r.Spares-1)
		if err != nil {
			t.Fatal(err)
		}
		if below <= base {
			t.Errorf("spares-1 (%d) already meets target: %v ≤ %v", r.Spares-1, below, base)
		}
	}
}

func TestMinSparesZeroWhenTrivial(t *testing.T) {
	dp := simd.New(tech.N90)
	const n = 1000
	// At nominal voltage against its own p99, zero spares suffice.
	base := baseline(t, dp, 3, n)
	r := minSpares(t, dp, 3, n, tech.N90.VddNominal, base, 128)
	if !r.Found || r.Spares != 0 {
		t.Errorf("want 0 spares, got %v", r)
	}
}

func TestMinSparesUnreachable(t *testing.T) {
	dp := simd.New(tech.N22)
	const n = 800
	base := baseline(t, dp, 4, n)
	r := minSpares(t, dp, 4, n, 0.5, base, 32)
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

// TestMinSparesCancelled: the spare search draws nothing itself, so
// cancellation stops the draw it reads — a cancelled ctx makes
// SpareSampleCtx return context.Canceled instead of a sample.
func TestMinSparesCancelled(t *testing.T) {
	dp := simd.New(tech.N90)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if s, err := dp.SpareSampleCtx(ctx, 5, 400, 0.55, 128); !errors.Is(err, context.Canceled) {
		t.Errorf("SpareSampleCtx on a cancelled ctx = (%v, %v), want context.Canceled", s, err)
	}
}

// redrawSearch is the spare search as it ran before it read one drawn
// sample: the doubling ladder, then the bisection, with every point a
// fresh P99ChipDelayFO4Ctx draw of the n chips at that spare count. It
// is kept as the reference the one-sample search must match, and it
// also reports how many bisection steps it took.
func redrawSearch(ctx context.Context, dp *simd.Datapath, seed uint64, n int, vdd, targetFO4 float64, limit int) (SearchResult, int, error) {
	res := SearchResult{Target: targetFO4, Samples: n}
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
	curve := make([]float64, len(ladder))
	for i, a := range ladder {
		p99, err := dp.P99ChipDelayFO4Ctx(ctx, seed, n, vdd, a)
		if err != nil {
			return res, 0, err
		}
		curve[i] = p99
	}
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
		return res, 0, nil
	}
	res.Found = true
	if hitIdx == 0 {
		res.Spares = ladder[0]
		res.P99 = curve[0]
		return res, 0, nil
	}
	lo, hi := ladder[hitIdx-1], ladder[hitIdx]
	p99hi := curve[hitIdx]
	steps := 0
	for ; hi-lo > 1; steps++ {
		mid := (lo + hi) / 2
		point, err := dp.P99ChipDelayFO4Ctx(ctx, seed, n, vdd, mid)
		if err != nil {
			return res, steps, err
		}
		if point <= targetFO4 {
			hi, p99hi = mid, point
		} else {
			lo = mid
		}
	}
	res.Spares = hi
	res.P99 = p99hi
	return res, steps, nil
}

// TestMinSparesMatchesRedrawSearch: the search over one drawn sample
// finds the same spare count and the same P99, bit for bit, as the
// search that redraws every chip at each point it reads, on every
// calibrated node at three near-threshold supplies and three seeds —
// and a progress reporter on the draw's context sees exactly n chip
// draws, where the redrawing search made one pass of n per point.
func TestMinSparesMatchesRedrawSearch(t *testing.T) {
	const n, limit = 300, 128
	var bisected int
	for _, node := range tech.Nodes() {
		dp := simd.New(node)
		base := baseline(t, dp, 1, n)
		for _, vdd := range []float64{0.50, 0.55, 0.60} {
			for _, seed := range []uint64{2, 3, 4} {
				prog := telemetry.NewProgress()
				sample, err := dp.SpareSampleCtx(telemetry.WithProgress(context.Background(), prog), seed, n, vdd, limit)
				if err != nil {
					t.Fatal(err)
				}
				got := MinSpares(sample, base)
				want, steps, err := redrawSearch(context.Background(), dp, seed, n, vdd, base, limit)
				if err != nil {
					t.Fatal(err)
				}
				if got.Spares != want.Spares || got.Found != want.Found || math.Float64bits(got.P99) != math.Float64bits(want.P99) {
					t.Errorf("%s @%.2fV seed %d: search %v, redrawing search %v", node.Name, vdd, seed, got, want)
				}
				if s := prog.Snapshot(); s.Done != n || s.Total != n {
					t.Errorf("%s @%.2fV seed %d: search drew %d of %d chips, want %d", node.Name, vdd, seed, s.Done, s.Total, n)
				}
				if steps > 0 {
					bisected++
				}
			}
		}
	}
	t.Logf("%d of 36 searches bisected", bisected)
	if bisected == 0 {
		t.Error("no case reached the bisection: the grid does not exercise it")
	}
}

// global is a single pool of spares reachable from every lane: one
// cluster of all lanes.
func global(lanes, spares int) Placement {
	return Placement{Lanes: lanes, ClusterSize: lanes, SparesPerCluster: spares}
}

func TestPlacementRepairable(t *testing.T) {
	g := global(128, 2)
	if !g.Repairable([]int{5, 77}) || g.Repairable([]int{1, 2, 3}) {
		t.Error("global repairability wrong")
	}
	l := Placement{Lanes: 8, ClusterSize: 4, SparesPerCluster: 1}
	if !l.Repairable([]int{0, 4}) { // one fault per cluster
		t.Error("local should repair one fault per cluster")
	}
	if l.Repairable([]int{0, 1}) { // two faults in cluster 0
		t.Error("local cannot repair two faults in one cluster")
	}
	if l.Spares() != 2 || g.Spares() != 2 {
		t.Errorf("spares = %d local, %d global, want 2 and 2", l.Spares(), g.Spares())
	}
	// A remainder cluster still gets its own spares.
	if r := (Placement{Lanes: 10, ClusterSize: 4, SparesPerCluster: 1}); r.Spares() != 3 || !r.Repairable([]int{0, 4, 9}) {
		t.Errorf("remainder cluster: spares %d, repairable %v", r.Spares(), r.Repairable([]int{0, 4, 9}))
	}
}

func TestIndependentCoverageGlobalExact(t *testing.T) {
	const p = 0.2
	// P(X ≤ 1), X ~ Bin(4, 0.2) = 0.8^4 + 4·0.2·0.8³ = 0.8192.
	if got := global(4, 1).IndependentCoverage(p); math.Abs(got-0.8192) > 1e-12 {
		t.Errorf("coverage = %v, want 0.8192", got)
	}
}

func TestIndependentCoverageLocalExact(t *testing.T) {
	l := Placement{Lanes: 8, ClusterSize: 4, SparesPerCluster: 1}
	const p = 0.1
	// P(Bin(4, .1) ≤ 1) = .9^4 + 4·.1·.9³.
	per := math.Pow(0.9, 4) + 4*0.1*math.Pow(0.9, 3)
	want := per * per
	if got := l.IndependentCoverage(p); math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
}

// TestIndependentCoverageMatchesBruteForce: the analytic binomial
// composition equals exhaustive enumeration of every fault subset, to
// 1e-12 relative tolerance — for pooled, clustered, remainder-cluster
// and spare-free placements.
func TestIndependentCoverageMatchesBruteForce(t *testing.T) {
	brute := func(pl Placement, p float64) float64 {
		total := 0.0
		for mask := 0; mask < 1<<pl.Lanes; mask++ {
			var faulty []int
			prob := 1.0
			for lane := 0; lane < pl.Lanes; lane++ {
				if mask&(1<<lane) != 0 {
					faulty = append(faulty, lane)
					prob *= p
				} else {
					prob *= 1 - p
				}
			}
			if pl.Repairable(faulty) {
				total += prob
			}
		}
		return total
	}
	for _, pl := range []Placement{
		global(10, 0),
		global(12, 2),
		global(12, 12),
		{Lanes: 12, ClusterSize: 4, SparesPerCluster: 1},
		{Lanes: 12, ClusterSize: 6, SparesPerCluster: 2},
		{Lanes: 16, ClusterSize: 4, SparesPerCluster: 0},
		{Lanes: 13, ClusterSize: 4, SparesPerCluster: 1},  // remainder cluster of 1
		{Lanes: 14, ClusterSize: 5, SparesPerCluster: 2},  // remainder cluster of 4
		{Lanes: 11, ClusterSize: 11, SparesPerCluster: 3}, // one cluster of all lanes
	} {
		for _, p := range []float64{0.01, 0.2, 0.5, 0.85} {
			got, want := pl.IndependentCoverage(p), brute(pl, p)
			if math.Abs(got-want) > 1e-12*math.Max(math.Abs(want), 1e-300) {
				t.Errorf("%+v p=%v: analytic %v, brute force %v", pl, p, got, want)
			}
		}
	}
}

// TestIndependentCoverageCertainLanes pins the point-mass ends: with
// no lane failing every placement covers the chip, and with every lane
// failing none does while it has fewer spares than lanes.
func TestIndependentCoverageCertainLanes(t *testing.T) {
	for _, pl := range []Placement{
		global(128, 2),
		{Lanes: 128, ClusterSize: 4, SparesPerCluster: 1},
		{Lanes: 128, ClusterSize: 32, SparesPerCluster: 2},
	} {
		if got := pl.IndependentCoverage(0); got != 1 {
			t.Errorf("%+v: coverage at p = 0 is %v, want 1", pl, got)
		}
		if got := pl.IndependentCoverage(1); got != 0 {
			t.Errorf("%+v: coverage at p = 1 is %v, want 0", pl, got)
		}
	}
}

// TestGlobalDominatesLocal: with the same spare budget, global placement
// covers at least as many fault patterns as local — the Appendix D claim.
func TestGlobalDominatesLocal(t *testing.T) {
	f := func(rawP float64) bool {
		p := math.Abs(math.Mod(rawP, 0.2))
		l := Placement{Lanes: 128, ClusterSize: 4, SparesPerCluster: 1}
		g := global(128, l.Spares())
		return g.IndependentCoverage(p) >= l.IndependentCoverage(p)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBurstCoverage(t *testing.T) {
	l := Placement{Lanes: 128, ClusterSize: 4, SparesPerCluster: 1}
	g := global(128, l.Spares())
	// A burst of 2 always defeats local sparing when it lands inside a
	// cluster (3 of 4 positions) and survives otherwise.
	lc := l.BurstCoverage(2, 1, 20000)
	if math.Abs(lc-0.25) > 0.02 {
		t.Errorf("local burst-2 coverage = %v, want ≈0.25", lc)
	}
	// Global sparing absorbs any burst up to its budget (32).
	if gc := g.BurstCoverage(32, 1, 2000); gc != 1 {
		t.Errorf("global burst-32 coverage = %v, want 1", gc)
	}
	if gc := g.BurstCoverage(33, 1, 2000); gc != 0 {
		t.Errorf("global burst-33 coverage = %v, want 0", gc)
	}
	// Zero-length bursts are trivially covered.
	if l.BurstCoverage(0, 1, 10) != 1 {
		t.Error("empty burst should be covered")
	}
}

func TestSegmentedBridgesLocalAndGlobal(t *testing.T) {
	const lanes = 128
	local := Placement{Lanes: lanes, ClusterSize: 4, SparesPerCluster: 1}
	seg := Placement{Lanes: lanes, ClusterSize: 32, SparesPerCluster: 8}
	glob := global(lanes, 32)
	// All three spend the same spare budget.
	if local.Spares() != 32 || seg.Spares() != 32 || glob.Spares() != 32 {
		t.Fatalf("budgets differ: %d, %d, %d", local.Spares(), seg.Spares(), glob.Spares())
	}
	for _, p := range []float64{0.005, 0.02, 0.05, 0.1} {
		cl := local.IndependentCoverage(p)
		cs := seg.IndependentCoverage(p)
		cg := glob.IndependentCoverage(p)
		if !(cl <= cs+1e-12 && cs <= cg+1e-12) {
			t.Errorf("p=%v: coverage ordering violated: local %v, segmented %v, global %v",
				p, cl, cs, cg)
		}
	}
}

func TestSegmentedRepairable(t *testing.T) {
	s := Placement{Lanes: 128, ClusterSize: 32, SparesPerCluster: 2}
	if !s.Repairable([]int{0, 1, 40}) { // 2 in segment 0, 1 in segment 1
		t.Error("repairable pattern rejected")
	}
	if s.Repairable([]int{0, 1, 2}) { // 3 in segment 0
		t.Error("over-budget segment accepted")
	}
}

func TestSegmentedBurstCoverage(t *testing.T) {
	// A segment-sized spare pool absorbs bursts up to its budget unless
	// the burst straddles a boundary unluckily; coverage must sit
	// between local's and global's.
	const lanes = 128
	local := Placement{Lanes: lanes, ClusterSize: 4, SparesPerCluster: 1}
	seg := Placement{Lanes: lanes, ClusterSize: 32, SparesPerCluster: 8}
	glob := global(lanes, 32)
	for _, blen := range []int{4, 8, 12} {
		cl := local.BurstCoverage(blen, 1, 4000)
		cs := seg.BurstCoverage(blen, 1, 4000)
		cg := glob.BurstCoverage(blen, 1, 4000)
		if !(cl <= cs+0.02 && cs <= cg+0.02) {
			t.Errorf("burst %d: ordering violated: %v, %v, %v", blen, cl, cs, cg)
		}
	}
	// Bursts within one segment's budget are always covered.
	if c := seg.BurstCoverage(8, 2, 2000); c < 0.99 {
		t.Errorf("burst-8 coverage %v, want ≈1 (8 spares per 32-lane segment)", c)
	}
}
