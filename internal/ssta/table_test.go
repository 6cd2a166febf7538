package ssta

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// The canonical SIMD geometry (internal/simd's DefaultPathsPerLane ×
// DefaultLanes), restated here because simd imports this package.
const testPaths, testLanes = 100, 128

// The guide-table inversion and the max-uniform lane draw are speedups
// that must not move a single bit of any drawn delay: the exactness
// comparisons below are on math.Float64bits.

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// vddSteps returns from, from+step, … up to to (inclusive, within
// rounding).
func vddSteps(from, to, step float64) []float64 {
	var vdds []float64
	for k := 0; from+step*float64(k) <= to+1e-9; k++ {
		vdds = append(vdds, from+step*float64(k))
	}
	return vdds
}

// forEachTable runs fn on the memoized canonical law and its table at
// every calibrated node × vdds, one parallel subtest per node.
func forEachTable(t *testing.T, vdds []float64, fn func(t *testing.T, vdd float64, law *Law, tbl *Table)) {
	for _, node := range tech.Nodes() {
		node := node
		t.Run(node.Name, func(t *testing.T) {
			t.Parallel()
			for _, vdd := range vdds {
				law := LawFor(node.Dev, node.Var, vdd, tech.ChainLength, testPaths, testLanes)
				fn(t, vdd, law, law.Table())
			}
		})
	}
}

// lawForRuns counts TestLawForOneLawPerInputs passes in this process.
var lawForRuns atomic.Int64

// TestLawForOneLawPerInputs: LawFor hands every caller of one argument
// list the same law and, from any number of goroutines at once, the
// same table; it counts each miss, and a node one ulp off a calibrated
// one gets a law of its own.
func TestLawForOneLawPerInputs(t *testing.T) {
	node := tech.N22
	// A supply no other test, nor an earlier -count pass, has built.
	vdd := 0.4321 + 1e-9*float64(lawForRuns.Add(1))
	before := mLawBuilds.Value()
	const callers = 16
	laws := make([]*Law, callers)
	tables := make([]*Table, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			laws[i] = LawFor(node.Dev, node.Var, vdd, tech.ChainLength, testPaths, testLanes)
			tables[i] = laws[i].Table()
		}(i)
	}
	wg.Wait()
	for i := range laws {
		if laws[i] != laws[0] || tables[i] != tables[0] {
			t.Fatalf("caller %d got law %p table %p, caller 0 got %p %p", i, laws[i], tables[i], laws[0], tables[0])
		}
	}
	if got := mLawBuilds.Value() - before; got < 1 {
		t.Errorf("a new law moved the build counter by %v", got)
	}
	built := mLawBuilds.Value()
	if LawFor(node.Dev, node.Var, vdd, tech.ChainLength, testPaths, testLanes) != laws[0] || mLawBuilds.Value() != built {
		t.Error("a resident law was rebuilt")
	}
	v := node.Var
	v.SigmaMulWID = math.Nextafter(v.SigmaMulWID, 1)
	if LawFor(node.Dev, v, vdd, tech.ChainLength, testPaths, testLanes) == laws[0] {
		t.Error("a custom node aliased the calibrated node's law")
	}
}

// TestLawColumnsNonDecreasing: every tabulated CDF from 0.30 V to
// 1.10 V in 12.5 mV steps is non-decreasing, so every column is guided
// and every table takes the max-uniform chip draw — the fast paths the
// exactness tests compare are the ones production runs.
func TestLawColumnsNonDecreasing(t *testing.T) {
	forEachTable(t, vddSteps(0.30, 1.10, 0.0125), func(t *testing.T, vdd float64, _ *Law, tbl *Table) {
		for name, c := range map[string]column{"path": tbl.path, "lane": tbl.lane, "chip": tbl.chip} {
			for i := 1; i < len(c.f); i++ {
				if !(c.f[i] >= c.f[i-1]) {
					t.Fatalf("vdd %g: %s column decreases at %d: %g < %g", vdd, name, i, c.f[i], c.f[i-1])
				}
			}
			if c.guide == nil {
				t.Errorf("vdd %g: %s column has no guide", vdd, name)
			}
		}
		if !tbl.ordered {
			t.Errorf("vdd %g: table knots are not ordered: no max-uniform chip draw, no tail censoring", vdd)
		}
	})
}

// TestTableColumnsAreLawCDFs: each knot holds exactly the law's own
// PathCDF, LaneCDF and ChipCDF — the table is a view of the law, not a
// second construction of it.
func TestTableColumnsAreLawCDFs(t *testing.T) {
	forEachTable(t, []float64{0.30, 0.50, 0.70, 1.10}, func(t *testing.T, vdd float64, law *Law, tbl *Table) {
		if tbl.x[0] != law.lo || tbl.x[len(tbl.x)-1] != law.hi || len(tbl.x) != tableKnots {
			t.Fatalf("vdd %g: %d knots over [%g, %g], law bracket [%g, %g]",
				vdd, len(tbl.x), tbl.x[0], tbl.x[len(tbl.x)-1], law.lo, law.hi)
		}
		for k, x := range tbl.x {
			if !sameBits(tbl.path.f[k], law.PathCDF(x)) || !sameBits(tbl.lane.f[k], law.LaneCDF(x)) ||
				!sameBits(tbl.chip.f[k], law.ChipCDF(x)) {
				t.Fatalf("vdd %g knot %d: table (%v, %v, %v), law (%v, %v, %v)", vdd, k,
					tbl.path.f[k], tbl.lane.f[k], tbl.chip.f[k], law.PathCDF(x), law.LaneCDF(x), law.ChipCDF(x))
			}
		}
		if law.Table() != tbl {
			t.Errorf("vdd %g: a second Table call tabulated again", vdd)
		}
	})
}

// TestGuidedInvertMatchesBinarySearch compares the guide-table
// inversion with the plain binary search on every column: at every
// knot and both its float neighbours, at the [0, 1) edges, 1 and NaN,
// and at 10⁵ stream uniforms.
func TestGuidedInvertMatchesBinarySearch(t *testing.T) {
	const uniforms = 100000
	forEachTable(t, vddSteps(0.45, 0.70, 0.0125), func(t *testing.T, vdd float64, _ *Law, tbl *Table) {
		for ci, c := range []column{tbl.path, tbl.lane, tbl.chip} {
			check := func(u float64) {
				if got, want := c.invert(tbl.x, u), invert(tbl.x, c.f, u); !sameBits(got, want) {
					t.Fatalf("vdd %g column %d u=%v: guided %v, binary search %v", vdd, ci, u, got, want)
				}
			}
			for _, u := range []float64{0, 1 - 0x1p-53, 1, math.NaN(), math.Copysign(0, -1)} {
				check(u)
			}
			for _, f := range c.f {
				check(f)
				check(math.Nextafter(f, math.Inf(-1)))
				check(math.Nextafter(f, math.Inf(1)))
			}
			r := rng.NewSub(uint64(ci+1), int(vdd*1e4))
			for i := 0; i < uniforms; i++ {
				check(r.Float64())
			}
		}
	})
}

// TestGuidedInvertFallsBack: a column that is not non-decreasing gets
// no guide and still inverts by binary search.
func TestGuidedInvertFallsBack(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	c := newColumn([]float64{0, 0.5, 0.25, 1})
	if c.guide != nil {
		t.Fatal("a decreasing column got a guide")
	}
	for _, u := range []float64{0, 0.3, 0.6, 0.99} {
		if got, want := c.invert(x, u), invert(x, c.f, u); !sameBits(got, want) {
			t.Errorf("u=%g: %v, want %v", u, got, want)
		}
	}
	if c := newColumn([]float64{0, math.NaN(), 1}); c.guide != nil {
		t.Error("a column holding NaN got a guide")
	}
}

func TestInvertTable(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	f := []float64{0, 0.25, 0.75, 1}
	cases := []struct{ u, want float64 }{
		{0, 0}, {0.25, 1}, {0.5, 1.5}, {1, 3}, {-0.1, 0}, {1.1, 3},
	}
	for _, c := range cases {
		if got := invert(x, f, c.u); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("invert(%v) = %v, want %v", c.u, got, c.want)
		}
	}
}

// TestMaxLaneMatchesEveryLane: MaxLane returns the max of Lane over
// its uniforms bit for bit, with the max-uniform skip and, on a table
// whose gate is off, without it: for 2000 random chips, and for every
// lane-column knot paired with the uniforms just above it, where a
// lane sitting on a knot can beat a larger uniform by an ulp.
func TestMaxLaneMatchesEveryLane(t *testing.T) {
	law := LawFor(tech.N45.Dev, tech.N45.Var, 0.55, tech.ChainLength, testPaths, testLanes)
	gated := law.Table()
	ungated := *gated
	ungated.ordered = false
	check := func(us []float64) {
		t.Helper()
		want, maxU := math.Inf(-1), math.Inf(-1)
		for _, u := range us {
			want = math.Max(want, gated.Lane(u))
			maxU = math.Max(maxU, u)
		}
		for _, tbl := range []*Table{gated, &ungated} {
			if got := tbl.MaxLane(us, maxU); !sameBits(got, want) {
				t.Fatalf("uniforms %v (ordered %v): MaxLane %v, max over lanes %v", us, tbl.ordered, got, want)
			}
		}
	}
	r := rng.New(3)
	us := make([]float64, testLanes)
	for trial := 0; trial < 2000; trial++ {
		for i := range us {
			us[i] = r.Float64()
		}
		check(us)
	}
	for _, f := range gated.lane.f {
		for u, k := f, 0; k < 2 && math.Nextafter(u, 1) < 1; k++ {
			u = math.Nextafter(u, 1)
			check([]float64{f, u})
		}
	}
}

// TestChipFloorCensorsOnlyBelowTarget: for every chip-column knot
// level u, its neighbours one ulp away and a mid-interval level, every
// uniform at or below ChipFloor(u) inverts no higher than Chip(u): the
// floor itself, the ulps just below it, each knot under it and 200
// random uniforms under it. A table whose knots are not ordered
// censors nothing, and nor does a level in the first two intervals.
func TestChipFloorCensorsOnlyBelowTarget(t *testing.T) {
	forEachTable(t, []float64{0.40, 0.55, 0.80}, func(t *testing.T, vdd float64, _ *Law, tbl *Table) {
		r := rng.New(uint64(vdd * 1e4))
		f := tbl.chip.f
		check := func(u float64) {
			t.Helper()
			floor, target := tbl.ChipFloor(u), tbl.Chip(u)
			if math.IsInf(floor, -1) {
				return
			}
			below := []float64{floor, math.Nextafter(floor, 0), math.Nextafter(math.Nextafter(floor, 0), 0)}
			for k := 0; k < len(f) && f[k] <= floor; k += 7 {
				below = append(below, f[k])
			}
			for k := 0; k < 200; k++ {
				below = append(below, floor*r.Float64())
			}
			for _, v := range below {
				if x := tbl.Chip(v); x > target {
					t.Fatalf("vdd %g: u %v floor %v: Chip(%v) = %v above Chip(u) = %v", vdd, u, floor, v, x, target)
				}
			}
		}
		for i := 1; i < len(f); i++ {
			if f[i] >= 1 {
				break
			}
			check(f[i])
			check(math.Nextafter(f[i], 1))
			check(math.Nextafter(f[i], 0))
			check(f[i-1] + (f[i]-f[i-1])/2)
		}
		check(1)
		if fl := tbl.ChipFloor(f[1]); !math.IsInf(fl, -1) {
			t.Errorf("vdd %g: floor %v at a level in the second interval, want -Inf", vdd, fl)
		}
		unordered := *tbl
		unordered.ordered = false
		if fl := unordered.ChipFloor(0.99); !math.IsInf(fl, -1) {
			t.Errorf("vdd %g: unordered table censors below %v, want -Inf", vdd, fl)
		}
	})
}

// TestTableLaneKS: 2·10⁵ lane draws through the table are a sample of
// the law's own LaneCDF — a one-sample KS test at α = 0.01.
func TestTableLaneKS(t *testing.T) {
	const n = 200000
	forEachTable(t, []float64{0.45, 0.60}, func(t *testing.T, vdd float64, law *Law, tbl *Table) {
		r := rng.NewSub(17, int(vdd*1e4))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = tbl.Lane(r.Float64())
		}
		sort.Float64s(xs)
		var d float64
		for i, x := range xs {
			f := law.LaneCDF(x)
			d = math.Max(d, math.Max(float64(i+1)/n-f, f-float64(i)/n))
		}
		if crit := 1.63 / math.Sqrt(n); d > crit {
			t.Errorf("vdd %g: lane KS %v > critical %v", vdd, d, crit)
		}
	})
}

// scaledVariation multiplies every variation σ of v by s.
func scaledVariation(v device.Variation, s float64) device.Variation {
	return device.Variation{
		SigmaVthWID: s * v.SigmaVthWID, SigmaVthD2D: s * v.SigmaVthD2D,
		SigmaMulWID: s * v.SigmaMulWID, SigmaMulD2D: s * v.SigmaMulD2D,
	}
}

// fidelityPs are the chip quantile levels the table must reproduce:
// the median, the paper's p99 and the 4σ and 6σ tail-yield targets.
var fidelityPs = []float64{0.5, 0.99, stats.Normal{Mu: 0, Sigma: 1}.CDF(4), stats.Normal{Mu: 0, Sigma: 1}.CDF(6)}

// chipQuantileRelErr returns the largest relative gap between the
// table's chip quantile and the law's closed-form ChipQuantile over
// fidelityPs.
func chipQuantileRelErr(law *Law) (worst, atP float64) {
	tbl := law.Table()
	for _, p := range fidelityPs {
		want := law.ChipQuantile(p)
		if rel := math.Abs(tbl.Chip(p)-want) / want; !(rel <= worst) {
			worst, atP = rel, p
		}
	}
	return worst, atP
}

// TestTableChipQuantileFidelity: the table's chip quantile stays within
// 5e-5 relative of the closed-form ChipQuantile from the median to the
// Φ(6) tail, on every calibrated node with its variation scaled ½× to
// 2×, from 0.30 V to 1.10 V. Tabulating in the survival domain is what
// resolves Φ(6): a CDF-domain table rounds the path CDF to 1 there.
func TestTableChipQuantileFidelity(t *testing.T) {
	for _, node := range tech.Nodes() {
		node := node
		t.Run(node.Name, func(t *testing.T) {
			t.Parallel()
			for _, s := range []float64{0.5, 0.75, 1, 1.5, 2} {
				v := scaledVariation(node.Var, s)
				for _, vdd := range vddSteps(0.30, 1.10, 0.05) {
					law := NewLaw(node.Dev, v, vdd, tech.ChainLength, testPaths, testLanes)
					if rel, p := chipQuantileRelErr(law); rel > 5e-5 {
						t.Errorf("σ×%g vdd %g p=%v: table chip quantile off by %.3g relative", s, vdd, p, rel)
					}
				}
			}
		})
	}
}

// FuzzLawTable fuzzes the variation scale in [0.5, 2] and Vdd in
// [0.3, 1.1] around each calibrated node: the table's chip quantile
// function must be monotone in u and within 1e-4 relative of the
// closed-form ChipQuantile from the median to the Φ(6) tail.
func FuzzLawTable(f *testing.F) {
	f.Add(uint8(0), uint16(21845), uint16(16384))
	f.Add(uint8(1), uint16(0), uint16(0))
	f.Add(uint8(2), uint16(65535), uint16(65535))
	f.Add(uint8(3), uint16(43690), uint16(8192))
	f.Fuzz(func(t *testing.T, ni uint8, scale, supply uint16) {
		nodes := tech.Nodes()
		node := nodes[int(ni)%len(nodes)]
		s := 0.5 + 1.5*float64(scale)/math.MaxUint16
		vdd := 0.3 + 0.8*float64(supply)/math.MaxUint16
		law := NewLaw(node.Dev, scaledVariation(node.Var, s), vdd, tech.ChainLength, testPaths, testLanes)
		tbl := law.Table()
		prev := math.Inf(-1)
		for k := 0; k <= 4096; k++ {
			u := float64(k) / 4096
			if k == 4096 {
				u = 1 - 0x1p-53
			}
			x := tbl.Chip(u)
			if !(x >= prev) {
				t.Fatalf("%s σ×%g vdd %g: Chip(%v) = %v below Chip of the previous uniform %v", node.Name, s, vdd, u, x, prev)
			}
			prev = x
		}
		if rel, p := chipQuantileRelErr(law); rel > 1e-4 {
			t.Fatalf("%s σ×%g vdd %g p=%v: table chip quantile off by %.3g relative", node.Name, s, vdd, p, rel)
		}
	})
}
