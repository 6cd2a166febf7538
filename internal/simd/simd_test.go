package simd

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// bg is the context the tests sample under: it is never cancelled, so
// every sampling call returns its full result.
var bg = context.Background()

// mustFloats returns a checker that fails t on a sampling error and
// passes the samples through otherwise, so a sampling call stays one
// expression: must(dp.ChipDelaysCtx(bg, …)).
func mustFloats(t testing.TB) func([]float64, error) []float64 {
	return func(v []float64, err error) []float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// spareP99s draws one SpareSample at the largest of alphas (the last)
// and reads its 99 % FO4 chip delay at each spare count in alphas.
func spareP99s(t testing.TB, dp *Datapath, seed uint64, n int, vdd float64, alphas []int) []float64 {
	t.Helper()
	sample, err := dp.SpareSampleCtx(bg, seed, n, vdd, alphas[len(alphas)-1])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(alphas))
	for i, a := range alphas {
		out[i] = sample.P99FO4(a)
	}
	return out
}

func testPath() *Datapath {
	// Reduced dimensions keep the gate-level comparisons fast
	// while exercising the same code paths as the full 128×100 system.
	dp := New(tech.N90)
	dp.Lanes = 16
	dp.PathsPerLane = 10
	return dp
}

func TestValidate(t *testing.T) {
	if err := New(tech.N90).Validate(); err != nil {
		t.Errorf("canonical datapath invalid: %v", err)
	}
	bad := New(tech.N90)
	bad.Lanes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero lanes accepted")
	}
}

func TestFO4Unit(t *testing.T) {
	dp := New(tech.N90)
	if got, want := dp.FO4(0.6), tech.N90.Dev.NominalDelay(0.6); got != want {
		t.Errorf("FO4 = %v, want %v", got, want)
	}
}

// TestFastPathMatchesExactGateLevel is the central sampler validation:
// the numerical-law path sampler must be statistically indistinguishable
// from full gate-level Monte Carlo (two-sample KS test at α = 0.01).
func TestFastPathMatchesExactGateLevel(t *testing.T) {
	must := mustFloats(t)
	const n = 4000
	const vdd = 0.55
	fast := New(tech.N90)
	fd := must(fast.PathDelaysCtx(bg, 1, n, vdd))
	ed := must(montecarlo.SampleCtx(bg, 2, n, gateLevel{New(tech.N90), vdd}.path))
	d := stats.KSStatistic(fd, ed)
	if crit := stats.KSCritical(n, n, 0.01); d > crit {
		t.Errorf("fast vs exact path KS = %v > critical %v", d, crit)
	}
}

// TestFastLaneMatchesExact validates the lane law (max of paths) against
// gate-level sampling.
func TestFastLaneMatchesExact(t *testing.T) {
	must := mustFloats(t)
	const n = 1500
	const vdd = 0.6
	fast := testPath()
	fd := must(fast.LaneDelaysCtx(bg, 3, n, vdd))
	ed := must(montecarlo.SampleCtx(bg, 4, n, gateLevel{testPath(), vdd}.lane))
	d := stats.KSStatistic(fd, ed)
	if crit := stats.KSCritical(n, n, 0.01); d > crit {
		t.Errorf("fast vs exact lane KS = %v > critical %v", d, crit)
	}
}

func TestLaneAboveSinglePath(t *testing.T) {
	must := mustFloats(t)
	dp := New(tech.N90)
	const vdd = 0.55
	paths := must(dp.PathDelaysCtx(bg, 5, 3000, vdd))
	lanes := must(dp.LaneDelaysCtx(bg, 6, 3000, vdd))
	if stats.Mean(lanes) <= stats.Mean(paths) {
		t.Error("lane (max of 100 paths) must be slower than one path on average")
	}
}

func TestChipAboveLane(t *testing.T) {
	must := mustFloats(t)
	dp := New(tech.N90)
	const vdd = 0.55
	lanes := must(dp.LaneDelaysCtx(bg, 7, 2000, vdd))
	chips := must(dp.ChipDelaysCtx(bg, 8, 2000, vdd, 0))
	if stats.Mean(chips) <= stats.Mean(lanes) {
		t.Error("chip (max of 128 lanes) must be slower than one lane on average")
	}
}

// TestChipDelayDeterministic: a seed fixes every chip, and
// SampleChipDelay on chip i's sub-stream draws chip i.
func TestChipDelayDeterministic(t *testing.T) {
	must := mustFloats(t)
	dp := New(tech.N90)
	a := must(dp.ChipDelaysCtx(bg, 9, 200, 0.6, 2))
	b := must(dp.ChipDelaysCtx(bg, 9, 200, 0.6, 2))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ChipDelaysCtx not deterministic")
		}
		if d := dp.SampleChipDelay(rng.NewSub(9, i), 0.6, 2); !sameBits(d, a[i]) {
			t.Fatalf("chip %d: SampleChipDelay %v, ChipDelaysCtx %v", i, d, a[i])
		}
	}
}

// TestCorrelatedPathsReadTheIIDLaw: a single critical path has no lane
// to correlate with, so every correlation model draws it from the
// iid-paths path law, bit for bit.
func TestCorrelatedPathsReadTheIIDLaw(t *testing.T) {
	must := mustFloats(t)
	want := must(New(tech.N45).PathDelaysCtx(bg, 5, 500, 0.55))
	for _, corr := range []CorrelationModel{SharedDie, Spatial} {
		dp := New(tech.N45)
		dp.Corr = corr
		for i, d := range must(dp.PathDelaysCtx(bg, 5, 500, 0.55)) {
			if !sameBits(d, want[i]) {
				t.Fatalf("%v path %d: %v, iid-paths %v", corr, i, d, want[i])
			}
		}
	}
}

// TestSamplersStopWhenCancelled: every sampling entry point returns
// the context's error, not a partial sample, once it is cancelled.
func TestSamplersStopWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	dp := New(tech.N90)
	_, err1 := dp.ChipDelaysFO4Ctx(ctx, 1, 1000, 0.55, 2)
	_, err2 := dp.P99ChipDelayFO4Ctx(ctx, 1, 1000, 0.55, 0)
	_, err3 := dp.SpareSampleCtx(ctx, 1, 1000, 0.55, 4)
	_, err4 := dp.LaneDelaysCtx(ctx, 1, 1000, 0.55)
	_, err5 := dp.PathDelaysCtx(ctx, 1, 1000, 0.55)
	for i, err := range []error{err1, err2, err3, err4, err5} {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("entry point %d: err = %v, want context.Canceled", i+1, err)
		}
	}
}

func TestSparesReduceP99(t *testing.T) {
	dp := New(tech.N90)
	curve := spareP99s(t, dp, 10, 3000, 0.55, []int{0, 2, 8, 32})
	for i := 1; i < len(curve); i++ {
		if curve[i] >= curve[i-1] {
			t.Errorf("p99 must fall with spares: %v", curve)
		}
	}
}

// TestSpareSampleMatchesChipDelays: a SpareSample gives, at every
// spare count Figure 5 reads, ChipDelaysFO4Ctx's chip delays and
// P99ChipDelayFO4Ctx's bits — the zero-spare max-uniform draw and the
// spared partial selection against the sample's selection over rows —
// whether it was drawn at exactly that count or at the largest, for the
// iid-paths law, the shared die and the spatial field.
func TestSpareSampleMatchesChipDelays(t *testing.T) {
	must := mustFloats(t)
	const n, vdd, seed = 3000, 0.6, 11
	alphas := []int{0, 2, 4, 6, 8, 16, 28} // Figure 5's
	for _, corr := range []CorrelationModel{IIDPaths, SharedDie, Spatial} {
		dp := New(tech.N90)
		dp.Corr = corr
		dp.CorrLanes = 8
		widest, err := dp.SpareSampleCtx(bg, seed, n, vdd, alphas[len(alphas)-1])
		if err != nil {
			t.Fatal(err)
		}
		for _, spares := range alphas {
			sample, err := dp.SpareSampleCtx(bg, seed, n, vdd, spares)
			if err != nil {
				t.Fatal(err)
			}
			direct := must(dp.ChipDelaysFO4Ctx(bg, seed, n, vdd, spares))
			for name, s := range map[string]*SpareSample{"exact": sample, "widest": widest} {
				got := s.ChipDelaysFO4(spares)
				if len(got) != n {
					t.Fatalf("%v, %d spares, %s sample: %d chips, want %d", corr, spares, name, len(got), n)
				}
				for i := range got {
					if !sameBits(got[i], direct[i]) {
						t.Fatalf("%v, %d spares, %s sample, chip %d: %v, ChipDelaysFO4Ctx %v", corr, spares, name, i, got[i], direct[i])
					}
				}
			}
			p99, err := dp.P99ChipDelayFO4Ctx(bg, seed, n, vdd, spares)
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*SpareSample{"exact": sample, "widest": widest} {
				if got := s.P99FO4(spares); !sameBits(got, p99) {
					t.Errorf("%v, %d spares, %s sample: p99 %v, P99ChipDelayFO4Ctx %v", corr, spares, name, got, p99)
				}
			}
			if sample.Chips() != n {
				t.Errorf("%v: Chips() = %d, want %d", corr, sample.Chips(), n)
			}
		}
	}
}

// TestSpareSampleReadsEverySpareCount: one SpareSample drawn at 128
// spares answers the p99 of every smaller spare count with the bits
// P99ChipDelayFO4Ctx's draw at that count gives, for the iid-paths law,
// the shared die and the spatial field on every calibrated node — a
// chip's stream is reset by its index, so its narrower row is a prefix
// of the wider one.
func TestSpareSampleReadsEverySpareCount(t *testing.T) {
	const n, vdd, seed = 120, 0.55, 12
	for _, corr := range []CorrelationModel{IIDPaths, SharedDie, Spatial} {
		for _, node := range tech.Nodes() {
			dp := New(node)
			dp.Corr = corr
			sample, err := dp.SpareSampleCtx(bg, seed, n, vdd, 128)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []int{0, 1, 5, 32, 127, 128} {
				want, err := dp.P99ChipDelayFO4Ctx(bg, seed, n, vdd, a)
				if err != nil {
					t.Fatal(err)
				}
				if got := sample.P99FO4(a); !sameBits(got, want) {
					t.Errorf("%v %s: P99FO4(%d) = %v, a draw at %d spares gives %v", corr, node.Name, a, got, a, want)
				}
			}
		}
	}
}

func TestSpareSamplePanicsOutsideItsSpares(t *testing.T) {
	sample, err := New(tech.N90).SpareSampleCtx(bg, 1, 10, 0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, spares := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("P99FO4(%d) on a 4-spare sample did not panic", spares)
				}
			}()
			sample.P99FO4(spares)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChipDelaysFO4(%d) on a 4-spare sample did not panic", spares)
				}
			}()
			sample.ChipDelaysFO4(spares)
		}()
	}
}

func TestLowerVddSlowerAndWider(t *testing.T) {
	must := mustFloats(t)
	dp := New(tech.N90)
	hi := must(dp.ChipDelaysFO4Ctx(bg, 12, 2000, 1.0, 0))
	lo := must(dp.ChipDelaysFO4Ctx(bg, 12, 2000, 0.5, 0))
	// In FO4 units the mean shifts right at low voltage (wider path
	// distribution pushes the max out).
	if stats.Mean(lo) <= stats.Mean(hi) {
		t.Error("low-voltage FO4 chip delay should exceed nominal")
	}
	// And in absolute terms low voltage is dramatically slower.
	if stats.Mean(lo)*dp.FO4(0.5) <= stats.Mean(hi)*dp.FO4(1.0) {
		t.Error("absolute delay must grow at low voltage")
	}
}

func TestCorrelatedModeSparesLessEffective(t *testing.T) {
	// The ablation result: under die-level correlation, dropping slow
	// lanes buys much less p99 improvement than under the paper's iid
	// assumption.
	iid := New(tech.N90)
	corr := New(tech.N90)
	corr.Corr = SharedDie
	const vdd = 0.55
	iidCurve := spareP99s(t, iid, 13, 4000, vdd, []int{0, 16})
	corrCurve := spareP99s(t, corr, 13, 4000, vdd, []int{0, 16})
	iidGain := 1 - iidCurve[1]/iidCurve[0]
	corrGain := 1 - corrCurve[1]/corrCurve[0]
	if corrGain >= iidGain {
		t.Errorf("correlated spare gain %v should be below iid gain %v", corrGain, iidGain)
	}
}

func TestCorrelatedFastMatchesCorrelatedExact(t *testing.T) {
	must := mustFloats(t)
	const n = 1200
	const vdd = 0.6
	fast := testPath()
	fast.Corr = SharedDie
	fd := must(fast.ChipDelaysCtx(bg, 14, n, vdd, 0))
	ed := must(montecarlo.SampleCtx(bg, 15, n, gateLevel{fast, vdd}.chip))
	d := stats.KSStatistic(fd, ed)
	if crit := stats.KSCritical(n, n, 0.01); d > crit {
		t.Errorf("correlated fast vs exact KS = %v > %v", d, crit)
	}
}

func TestP99ConsistentWithSortedSample(t *testing.T) {
	must := mustFloats(t)
	dp := New(tech.N90)
	ds := must(dp.ChipDelaysFO4Ctx(bg, 16, 2000, 0.6, 0))
	sort.Float64s(ds)
	want := stats.QuantileSorted(ds, 0.99)
	got, err := dp.P99ChipDelayFO4Ctx(bg, 16, 2000, 0.6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("P99 = %v, want %v", got, want)
	}
}

func TestSpatialInterpolatesBetweenExtremes(t *testing.T) {
	// The p99 gain from spares under the spatial model must land between
	// the iid and shared-die extremes, approaching each at its limit.
	const vdd = 0.55
	const n = 3000
	gain := func(dp *Datapath) float64 {
		c := spareP99s(t, dp, 21, n, vdd, []int{0, 16})
		return 1 - c[1]/c[0]
	}
	iid := New(tech.N90)
	shared := New(tech.N90)
	shared.Corr = SharedDie
	short := New(tech.N90)
	short.Corr = Spatial
	short.CorrLanes = 0.5
	long := New(tech.N90)
	long.Corr = Spatial
	long.CorrLanes = 1000

	gIID, gShared := gain(iid), gain(shared)
	gShort, gLong := gain(short), gain(long)
	if !(gShared < gIID) {
		t.Fatalf("extremes inverted: shared %v, iid %v", gShared, gIID)
	}
	// Long correlation length approaches the shared-die behaviour.
	if gLong > (gIID+gShared)/2 {
		t.Errorf("long-correlation gain %v too close to iid %v (shared %v)", gLong, gIID, gShared)
	}
	// Short correlation length recovers most of the iid gain.
	if gShort < gShared {
		t.Errorf("short-correlation gain %v below shared-die %v", gShort, gShared)
	}
	if gShort <= gLong {
		t.Errorf("gain should fall with correlation length: %v vs %v", gShort, gLong)
	}
}

func TestSpatialFastMatchesExact(t *testing.T) {
	must := mustFloats(t)
	const n = 1200
	const vdd = 0.6
	fast := testPath()
	fast.Corr = Spatial
	fast.CorrLanes = 4
	fd := must(fast.ChipDelaysCtx(bg, 22, n, vdd, 0))
	ed := must(montecarlo.SampleCtx(bg, 23, n, gateLevel{fast, vdd}.chip))
	d := stats.KSStatistic(fd, ed)
	if crit := stats.KSCritical(n, n, 0.01); d > crit {
		t.Errorf("spatial fast vs exact KS = %v > %v", d, crit)
	}
}

func TestSpatialNeighborCorrelation(t *testing.T) {
	// Adjacent lanes must correlate more strongly than distant lanes.
	dp := New(tech.N90)
	dp.Corr = Spatial
	dp.CorrLanes = 8
	const n = 4000
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dp.Lanes)
	}
	s := dp.sampler(0.55)
	for i := 0; i < n; i++ {
		s.lanes(rngFor(uint64(i)), rows[i])
	}
	corrAt := func(d int) float64 {
		var x, y []float64
		for _, row := range rows {
			x = append(x, row[0])
			y = append(y, row[d])
		}
		mx, my := stats.Mean(x), stats.Mean(y)
		var cov, vx, vy float64
		for i := range x {
			cov += (x[i] - mx) * (y[i] - my)
			vx += (x[i] - mx) * (x[i] - mx)
			vy += (y[i] - my) * (y[i] - my)
		}
		return cov / math.Sqrt(vx*vy)
	}
	near, far := corrAt(1), corrAt(100)
	if near <= far+0.05 {
		t.Errorf("lane-1 correlation %v not above lane-100 correlation %v", near, far)
	}
	if near < 0.2 {
		t.Errorf("adjacent-lane correlation %v too weak for CorrLanes=8", near)
	}
}

func TestCorrelationModelString(t *testing.T) {
	for _, c := range []CorrelationModel{IIDPaths, SharedDie, Spatial, CorrelationModel(9)} {
		if c.String() == "" {
			t.Error("empty model name")
		}
	}
}

// rngFor returns a deterministic stream for test sample i.
func rngFor(i uint64) *rng.Stream { return rng.NewSub(777, int(i)) }

// TestChipLawMatchesMonteCarlo validates the tabulated chip quantile
// against the Monte-Carlo chip-delay sampler it summarizes: the
// p-quantile must land inside the distribution-free CI of the sampled
// quantile, and the law's CDF∘Quantile must be close to identity.
func TestChipLawMatchesMonteCarlo(t *testing.T) {
	must := mustFloats(t)
	dp := testPath()
	const vdd = 0.55
	ds := must(dp.ChipDelaysCtx(bg, 11, 4000, vdd, 0))
	sort.Float64s(ds)
	law := ssta.LawFor(dp.Node.Dev, dp.Node.Var, vdd, dp.ChainLen, dp.PathsPerLane, dp.Lanes)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		q, err := dp.ChipQuantile(vdd, p)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := stats.QuantileCI(ds, p, 0.999)
		if q < lo || q > hi {
			t.Errorf("ChipQuantile(%g) = %g outside MC CI [%g, %g]", p, q, lo, hi)
		}
		if f := law.ChipCDF(q); math.Abs(f-p) > 0.01 {
			t.Errorf("ChipCDF(ChipQuantile(%g)) = %g", p, f)
		}
	}
}

// TestChipQuantileFnMonotone pins the closure form used by the
// importance sampler: same values as ChipQuantile, monotone in u.
func TestChipQuantileFnMonotone(t *testing.T) {
	dp := testPath()
	const vdd = 0.5
	fn, err := dp.ChipQuantileFn(vdd)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for _, u := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.9999, 0.999999} {
		x := fn(u)
		if x < prev {
			t.Fatalf("quantile not monotone at u=%g: %g < %g", u, x, prev)
		}
		prev = x
		want, err := dp.ChipQuantile(vdd, u)
		if err != nil {
			t.Fatal(err)
		}
		if x != want {
			t.Errorf("ChipQuantileFn(%g) = %g, ChipQuantile = %g", u, x, want)
		}
	}
}

// TestAnalyticLawUnavailable pins the error contract for datapath
// configurations without a tabulated chip law.
func TestAnalyticLawUnavailable(t *testing.T) {
	for _, corr := range []CorrelationModel{SharedDie, Spatial} {
		dp := testPath()
		dp.Corr = corr
		if _, err := dp.ChipQuantile(0.5, 0.99); err != ErrNoAnalyticLaw {
			t.Errorf("%v: err = %v, want ErrNoAnalyticLaw", dp.Corr, err)
		}
		if _, err := dp.ChipQuantileFn(0.5); err != ErrNoAnalyticLaw {
			t.Errorf("ChipQuantileFn err = %v, want ErrNoAnalyticLaw", err)
		}
	}
}
