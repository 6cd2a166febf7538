package simd

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// The max-uniform chip draw, the spare selection and the selected p99
// are speedups that must not move a single bit of any drawn delay:
// every comparison below is on math.Float64bits. (The guide-table
// inversion they build on is pinned against the plain binary search in
// internal/ssta.)

// exactGrid is the (node, Vdd) grid the exactness tests cover: every
// calibrated node from 0.45 V to 0.70 V in 12.5 mV steps.
func exactGrid() (nodes []tech.Node, vdds []float64) {
	for k := 0; k <= 20; k++ {
		vdds = append(vdds, 0.45+0.0125*float64(k))
	}
	return tech.Nodes(), vdds
}

// forEachLaw runs fn on the canonical datapath's law table at every
// grid point, one parallel subtest per node.
func forEachLaw(t *testing.T, fn func(t *testing.T, dp *Datapath, vdd float64, law *ssta.Table)) {
	nodes, vdds := exactGrid()
	for _, node := range nodes {
		node := node
		t.Run(node.Name, func(t *testing.T) {
			t.Parallel()
			dp := New(node)
			for _, vdd := range vdds {
				fn(t, dp, vdd, dp.law(vdd))
			}
		})
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// referenceChip is the zero-spare chip draw as it was before the
// max-uniform draw: every lane inverted, then the max.
func referenceChip(law *ssta.Table, lanes int, r *rng.Stream) float64 {
	worst := 0.0
	for l := 0; l < lanes; l++ {
		d := law.Lane(r.Float64())
		if l == 0 || d > worst {
			worst = d
		}
	}
	return worst
}

// referenceSpareChip is the spared chip draw as it was before partial
// selection: every lane inverted, a full sort, and the Lanes-th
// fastest.
func referenceSpareChip(law *ssta.Table, lanes, spares int, r *rng.Stream) float64 {
	ds := make([]float64, lanes+spares)
	for i := range ds {
		ds[i] = law.Lane(r.Float64())
	}
	sort.Float64s(ds)
	return ds[lanes-1]
}

// TestChipDrawMatchesReference: ChipDelaysCtx (max-uniform) equals the
// all-lanes reference chip by chip, over the grid × 3 seeds × 2000
// chips; sample i uses the (seed, i) sub-stream.
func TestChipDrawMatchesReference(t *testing.T) {
	const chips = 2000
	forEachLaw(t, func(t *testing.T, dp *Datapath, vdd float64, law *ssta.Table) {
		must := mustFloats(t)
		for _, seed := range []uint64{1, 2, 3} {
			got := must(dp.ChipDelaysCtx(bg, seed, chips, vdd, 0))
			for i, g := range got {
				if want := referenceChip(law, dp.Lanes, rng.NewSub(seed, i)); !sameBits(g, want) {
					t.Fatalf("vdd %g seed %d chip %d: %v, reference %v", vdd, seed, i, g, want)
				}
			}
		}
	})
}

// TestWideChipDrawMatchesReference covers the zero-spare chips wider
// than DefaultLanes, which draw into the spared path's buffers instead
// of the DefaultLanes array: one width on the stack array, one past it
// on the heap.
func TestWideChipDrawMatchesReference(t *testing.T) {
	must := mustFloats(t)
	const chips = 300
	for _, lanes := range []int{DefaultLanes + 1, maxStackLanes + 1} {
		dp := New(tech.N32)
		dp.Lanes = lanes
		for _, vdd := range []float64{0.5, 0.6} {
			law := dp.law(vdd)
			got := must(dp.ChipDelaysCtx(bg, 9, chips, vdd, 0))
			for i, g := range got {
				if want := referenceChip(law, lanes, rng.NewSub(9, i)); !sameBits(g, want) {
					t.Fatalf("%d lanes vdd %g chip %d: %v, reference %v", lanes, vdd, i, g, want)
				}
			}
		}
	}
}

// TestSpareChipDrawMatchesReference covers the spared draw — stack
// array and partial selection, plus the heap fallback for chips wider
// than the stack array — against the sort-based reference.
func TestSpareChipDrawMatchesReference(t *testing.T) {
	must := mustFloats(t)
	const chips = 300
	for _, node := range tech.Nodes() {
		dp := New(node)
		for _, vdd := range []float64{0.5, 0.6} {
			law := dp.law(vdd)
			for _, spares := range []int{1, 8, 32, maxStackLanes} {
				got := must(dp.ChipDelaysCtx(bg, 9, chips, vdd, spares))
				for i, g := range got {
					if want := referenceSpareChip(law, dp.Lanes, spares, rng.NewSub(9, i)); !sameBits(g, want) {
						t.Fatalf("%s vdd %g spares %d chip %d: %v, reference %v", node.Name, vdd, spares, i, g, want)
					}
				}
			}
		}
	}
}

// TestSpareCurveMatchesSortLoop pins SpareSample's partial selection
// against the full sort it replaced: every spare count of one sample,
// bit for bit, for the iid-paths law and the shared-die ablation.
func TestSpareCurveMatchesSortLoop(t *testing.T) {
	must := mustFloats(t)
	const n, vdd = 500, 0.55
	alphas := []int{0, 2, 8, 28}
	for _, corr := range []CorrelationModel{IIDPaths, SharedDie} {
		dp := New(tech.N32)
		dp.Corr = corr
		got := spareP99s(t, dp, 4, n, vdd, alphas)
		width := dp.Lanes + alphas[len(alphas)-1]
		slab := must(montecarlo.SampleFlatCtx(bg, 4, n, width, dp.sampler(vdd).lanes))
		fo4 := dp.FO4(vdd)
		for ai, a := range alphas {
			delays := make([]float64, n)
			for i := range delays {
				chip := append([]float64(nil), slab[i*width:i*width+dp.Lanes+a]...)
				sort.Float64s(chip)
				delays[i] = chip[dp.Lanes-1] / fo4
			}
			sort.Float64s(delays)
			if want := stats.QuantileSorted(delays, 0.99); !sameBits(got[ai], want) {
				t.Errorf("%v alpha %d: SpareSample %v, sort loop %v", corr, a, got[ai], want)
			}
		}
	}
}

// TestChipDrawAllocationBound: a ChipDelaysCtx call allocates a constant
// number of times — its result, one worker stream, closure plumbing —
// never once per chip, with and without spares.
func TestChipDrawAllocationBound(t *testing.T) {
	must := mustFloats(t)
	dp := New(tech.N45)
	const n = 2000
	for _, spares := range []int{0, 8} {
		old := runtime.GOMAXPROCS(1)
		allocs := testing.AllocsPerRun(5, func() { must(dp.ChipDelaysCtx(bg, 3, n, 0.55, spares)) })
		runtime.GOMAXPROCS(old)
		if allocs > 8 {
			t.Errorf("spares %d: ChipDelaysCtx(n=%d) allocates %v per call, want ≤ 8", spares, n, allocs)
		}
	}
}

// TestP99AllocationBound: reading the 99 % point adds no allocation to
// the draw. P99ChipDelayFO4Ctx allocates what its ChipDelaysFO4Ctx
// draw does, and SpareSample.P99FO4 allocates nothing, with and without
// spares.
func TestP99AllocationBound(t *testing.T) {
	must := mustFloats(t)
	dp := New(tech.N45)
	const n, vdd = 2000, 0.55
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, spares := range []int{0, 8} {
		draw := testing.AllocsPerRun(5, func() { must(dp.ChipDelaysFO4Ctx(bg, 3, n, vdd, spares)) })
		p99 := testing.AllocsPerRun(5, func() {
			if _, err := dp.P99ChipDelayFO4Ctx(bg, 3, n, vdd, spares); err != nil {
				t.Fatal(err)
			}
		})
		if p99 > draw {
			t.Errorf("spares %d: P99ChipDelayFO4Ctx allocates %v per call, its draw %v", spares, p99, draw)
		}
		sample, err := dp.SpareSampleCtx(bg, 3, n, vdd, spares)
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(5, func() { sample.P99FO4(spares) }); a != 0 {
			t.Errorf("spares %d: SpareSample.P99FO4 allocates %v per call, want 0", spares, a)
		}
	}
}

// TestSharedDieIsInfiniteSpatial: a SharedDie chip is the Spatial field
// at CorrLanes = +Inf, bit for bit, with and without spares.
func TestSharedDieIsInfiniteSpatial(t *testing.T) {
	must := mustFloats(t)
	for _, node := range tech.Nodes() {
		shared, spatial := New(node), New(node)
		shared.Corr = SharedDie
		spatial.Corr, spatial.CorrLanes = Spatial, math.Inf(1)
		for _, spares := range []int{0, 8} {
			a := must(shared.ChipDelaysCtx(bg, 17, 300, 0.55, spares))
			b := must(spatial.ChipDelaysCtx(bg, 17, 300, 0.55, spares))
			for i := range a {
				if !sameBits(a[i], b[i]) {
					t.Fatalf("%s, %d spares, chip %d: SharedDie %v, Spatial(+Inf) %v", node.Name, spares, i, a[i], b[i])
				}
			}
		}
	}
}

// referenceSharedDieChip is the zero-spare SharedDie chip as drawn
// before it read the lane field: one die (its V_th shift, then its
// multiplicative term), the exact conditional chain moments at that
// shift, and one uniform per lane.
func referenceSharedDieChip(dp *Datapath, vdd float64, r *rng.Stream) float64 {
	d2d := r.Gauss(0, dp.Node.Var.SigmaVthD2D)
	mul := math.Exp(r.Gauss(0, dp.Node.Var.SigmaMulD2D))
	m, v := device.ChainConditionalMoments(dp.Node.Dev, dp.Node.Var, vdd, dp.ChainLen, d2d)
	law := stats.Normal{Mu: m, Sigma: math.Sqrt(v)}
	pinv := 1 / float64(dp.PathsPerLane)
	worst := 0.0
	for l := 0; l < dp.Lanes; l++ {
		if d := mul * law.Quantile(clampU(math.Pow(r.Float64(), pinv))); d > worst {
			worst = d
		}
	}
	return worst
}

// TestSharedDieMatchesExactMoments: a SharedDie chip draws the same die
// and lane uniforms from its stream as the exact-moment reference, and
// the interpolated moment table moves its delay by at most 2e-4
// relative, on every calibrated node from 0.45 to 0.70 V.
func TestSharedDieMatchesExactMoments(t *testing.T) {
	const chips, tol = 200, 2e-4
	nodes, vdds := exactGrid()
	for _, node := range nodes {
		dp := New(node)
		dp.Corr = SharedDie
		for k := 0; k < len(vdds); k += 4 {
			vdd := vdds[k]
			got, err := dp.ChipDelaysCtx(bg, 19, chips, vdd, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range got {
				want := referenceSharedDieChip(dp, vdd, rng.NewSub(19, i))
				if rel := math.Abs(g-want) / want; !(rel <= tol) {
					t.Fatalf("%s vdd %g chip %d: %v, exact moments %v (%.3g relative)", node.Name, vdd, i, g, want, rel)
				}
			}
		}
	}
}
