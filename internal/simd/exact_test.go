package simd

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// The guide-table inversion, the max-uniform chip draw and the spare
// selection are speedups that must not move a single bit of any drawn
// delay: every comparison below is on math.Float64bits.

// exactGrid is the (node, Vdd) grid the exactness tests cover: every
// calibrated node from 0.45 V to 0.70 V in 12.5 mV steps.
func exactGrid() (nodes []tech.Node, vdds []float64) {
	for k := 0; k <= 20; k++ {
		vdds = append(vdds, 0.45+0.0125*float64(k))
	}
	return tech.Nodes(), vdds
}

// forEachLaw runs fn on the canonical datapath's law at every grid
// point, one parallel subtest per node.
func forEachLaw(t *testing.T, fn func(t *testing.T, dp *Datapath, vdd float64, law *delayLaw)) {
	nodes, vdds := exactGrid()
	for _, node := range nodes {
		node := node
		t.Run(node.Name, func(t *testing.T) {
			t.Parallel()
			dp := New(node)
			for _, vdd := range vdds {
				fn(t, dp, vdd, dp.lawFor(vdd))
			}
		})
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLawColumnsNonDecreasing: every tabulated CDF on the grid is
// non-decreasing, so every column is guided and every law takes the
// max-uniform chip draw — the fast paths the exactness tests below
// compare are the ones production runs.
func TestLawColumnsNonDecreasing(t *testing.T) {
	forEachLaw(t, func(t *testing.T, _ *Datapath, vdd float64, law *delayLaw) {
		for name, c := range map[string]column{"path": law.fPath, "lane": law.fLane, "chip": law.fChip} {
			for i := 1; i < len(c.f); i++ {
				if !(c.f[i] >= c.f[i-1]) {
					t.Fatalf("vdd %g: %s column decreases at %d: %g < %g", vdd, name, i, c.f[i], c.f[i-1])
				}
			}
			if c.guide == nil {
				t.Errorf("vdd %g: %s column has no guide", vdd, name)
			}
		}
		if !law.maxDraw {
			t.Errorf("vdd %g: law does not take the max-uniform chip draw", vdd)
		}
	})
}

// TestGuidedInvertMatchesBinarySearch compares the guide-table
// inversion with the plain binary search on every column: at every
// knot and both its float neighbours, at the [0, 1) edges, 1 and NaN,
// and at 10⁵ stream uniforms.
func TestGuidedInvertMatchesBinarySearch(t *testing.T) {
	const uniforms = 100000
	forEachLaw(t, func(t *testing.T, _ *Datapath, vdd float64, law *delayLaw) {
		for ci, c := range []column{law.fPath, law.fLane, law.fChip} {
			check := func(u float64) {
				if got, want := c.invert(law.x, u), invert(law.x, c.f, u); !sameBits(got, want) {
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

// referenceChip is the zero-spare chip draw as it was before the
// max-uniform draw: every lane inverted by binary search, then the max.
func referenceChip(law *delayLaw, lanes int, r *rng.Stream) float64 {
	worst := 0.0
	for l := 0; l < lanes; l++ {
		d := invert(law.x, law.fLane.f, r.Float64())
		if l == 0 || d > worst {
			worst = d
		}
	}
	return worst
}

// referenceSpareChip is the spared chip draw as it was before partial
// selection: every lane inverted by binary search, a full sort, and the
// Lanes-th fastest.
func referenceSpareChip(law *delayLaw, lanes, spares int, r *rng.Stream) float64 {
	ds := make([]float64, lanes+spares)
	for i := range ds {
		ds[i] = invert(law.x, law.fLane.f, r.Float64())
	}
	sort.Float64s(ds)
	return ds[lanes-1]
}

// TestChipDrawMatchesReference: ChipDelays (guided, max-uniform) equals
// the all-lanes binary-search reference chip by chip, over the grid × 3
// seeds × 2000 chips; sample i uses the (seed, i) sub-stream.
func TestChipDrawMatchesReference(t *testing.T) {
	const chips = 2000
	forEachLaw(t, func(t *testing.T, dp *Datapath, vdd float64, law *delayLaw) {
		for _, seed := range []uint64{1, 2, 3} {
			got := dp.ChipDelays(seed, chips, vdd, 0)
			for i, g := range got {
				if want := referenceChip(law, dp.Lanes, rng.NewSub(seed, i)); !sameBits(g, want) {
					t.Fatalf("vdd %g seed %d chip %d: %v, reference %v", vdd, seed, i, g, want)
				}
			}
		}
	})
}

// TestSpareChipDrawMatchesReference covers the spared draw — stack
// array and partial selection, plus the heap fallback for chips wider
// than the stack array — against the sort-based reference.
func TestSpareChipDrawMatchesReference(t *testing.T) {
	const chips = 300
	for _, node := range tech.Nodes() {
		dp := New(node)
		for _, vdd := range []float64{0.5, 0.6} {
			law := dp.lawFor(vdd)
			for _, spares := range []int{1, 8, 32, maxStackLanes} {
				got := dp.ChipDelays(9, chips, vdd, spares)
				for i, g := range got {
					if want := referenceSpareChip(law, dp.Lanes, spares, rng.NewSub(9, i)); !sameBits(g, want) {
						t.Fatalf("%s vdd %g spares %d chip %d: %v, reference %v", node.Name, vdd, spares, i, g, want)
					}
				}
			}
		}
	}
}

// TestKthSmallestMatchesSort checks the selection against a full sort
// on random, duplicate-heavy, sorted and reversed inputs at every rank.
func TestKthSmallestMatchesSort(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%40
		a := make([]float64, n)
		for i := range a {
			switch trial % 4 {
			case 0:
				a[i] = r.Float64()
			case 1:
				a[i] = float64(r.Uint64() % 3) // heavy duplicates
			case 2:
				a[i] = float64(i)
			default:
				a[i] = float64(n - i)
			}
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		for k := range a {
			work := append([]float64(nil), a...)
			if got := kthSmallest(work, k); !sameBits(got, sorted[k]) {
				t.Fatalf("trial %d (%v) k=%d: %v, want %v", trial, a, k, got, sorted[k])
			}
		}
	}
}

// TestChipDrawAllocationBound: a ChipDelays call allocates a constant
// number of times — its result, one worker stream, closure plumbing —
// never once per chip, with and without spares.
func TestChipDrawAllocationBound(t *testing.T) {
	dp := New(tech.N45)
	const n = 2000
	for _, spares := range []int{0, 8} {
		old := runtime.GOMAXPROCS(1)
		allocs := testing.AllocsPerRun(5, func() { dp.ChipDelays(3, n, 0.55, spares) })
		runtime.GOMAXPROCS(old)
		if allocs > 8 {
			t.Errorf("spares %d: ChipDelays(n=%d) allocates %v per call, want ≤ 8", spares, n, allocs)
		}
	}
}
