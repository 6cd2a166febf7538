// Package simd models the delay statistics of a wide SIMD datapath under
// process variation, following the paper's §3.2 simplifications:
//
//   - each critical path is emulated by a chain of 50 FO4 inverters;
//   - each SIMD lane contains 100 such paths (50 critical + 50
//     near-critical, from the Diet SODA synthesis report);
//   - the lane delay is the slowest path in the lane;
//   - the chip delay of an N-wide datapath is the slowest of its N lanes.
//
// Following the paper's Monte-Carlo methodology, every critical path is
// an independent draw from the 50-FO4-chain delay distribution (the
// distribution of Figure 1(b), which already contains the die-to-die
// spread as part of its width). Two alternative correlation models are
// kept as ablations, both read from one AR(1) systematic field across
// the lane array: Spatial sets its correlation length, and SharedDie is
// its infinite-length limit, one die-level draw shared by every lane of
// a chip — under which structural duplication loses most of its power,
// because dropping slow lanes cannot fix a slow die.
//
// The default sampler draws lane delays by inverse-CDF sampling from
// the lane law (the path law raised to the 100th power) of
// internal/ssta's iid-paths chip-delay law, read through the law's
// tabulated inverse (ssta.Table), which makes chip-level Monte Carlo
// cheap enough for the spare-count and voltage-margin searches. The
// laws are pure functions of (node parameters, geometry, Vdd), so the
// one process-wide law memo (ssta.LawFor) builds and tabulates each
// once, and every Datapath, shard, sweep and the SSTA estimator share
// it. The correlated lanes read a memoized table of die-conditional
// chain moments. The package tests keep a gate-level sampler as the
// reference both samplers are KS-tested against. A zero-spare chip
// tracks its largest uniform while drawing and inverts only the lanes
// whose uniforms can reach the maximum, and a spared chip selects its
// slowest kept lane (stats.Select); both reproduce the full inversion
// and sort bit for bit (the package's exactness tests pin this).
//
// P99ChipDelayFO4Ctx reads the paper's 99 % chip delay at one spare
// count. A question over several spare counts of the same chips — a
// spare curve, or internal/sparing's spare search — draws one
// SpareSample at the largest count and reads every smaller count from
// it, with the bits P99ChipDelayFO4Ctx gives at that count.
package simd

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/memo"
	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// DefaultLanes is the paper's SIMD width (Diet SODA).
const DefaultLanes = 128

// DefaultPathsPerLane is the paper's per-lane critical-path count.
const DefaultPathsPerLane = 100

// CorrelationModel selects how die-level variation is shared across the
// lanes of one chip sample.
type CorrelationModel int

const (
	// IIDPaths is the paper's methodology: every critical path is an
	// independent draw from the full chain-delay distribution.
	IIDPaths CorrelationModel = iota
	// SharedDie draws the die-level variation once per chip and shares
	// it across all lanes — the physically conservative extreme, under
	// which structural duplication loses most of its value. It is the
	// Spatial field at CorrLanes = +Inf, bit for bit.
	SharedDie
	// Spatial draws a smoothly varying systematic field across the lane
	// array: an AR(1) process in lane index with stationary variance
	// equal to the calibrated die-level variance and e-folding length
	// CorrLanes. CorrLanes → 0 approaches per-lane independence;
	// CorrLanes = +Inf is SharedDie.
	Spatial
)

// String names the model.
func (c CorrelationModel) String() string {
	switch c {
	case IIDPaths:
		return "iid-paths"
	case SharedDie:
		return "shared-die"
	case Spatial:
		return "spatial"
	default:
		return fmt.Sprintf("CorrelationModel(%d)", int(c))
	}
}

// Datapath is the delay model of a wide SIMD datapath on one technology
// node. The zero Corr field selects the paper's methodology: independent
// paths, sampled from the numerical chain-delay law.
type Datapath struct {
	Node         tech.Node
	Lanes        int
	PathsPerLane int
	ChainLen     int

	// Corr selects the lane-correlation model; the zero value is the
	// paper's iid-path methodology.
	Corr CorrelationModel
	// CorrLanes is the e-folding correlation length, in lanes, of the
	// Spatial model (ignored otherwise). Zero gives per-lane-independent
	// systematic draws (ρ = 0).
	CorrLanes float64
}

// New returns the paper's canonical datapath (128 lanes × 100 paths of
// 50 FO4 inverters) on the given node.
func New(node tech.Node) *Datapath {
	return &Datapath{
		Node:         node,
		Lanes:        DefaultLanes,
		PathsPerLane: DefaultPathsPerLane,
		ChainLen:     tech.ChainLength,
	}
}

// Validate reports whether the datapath dimensions are usable.
func (dp *Datapath) Validate() error {
	if dp.Lanes < 1 || dp.PathsPerLane < 1 || dp.ChainLen < 1 {
		return fmt.Errorf("simd: invalid datapath dimensions %d lanes × %d paths × %d gates",
			dp.Lanes, dp.PathsPerLane, dp.ChainLen)
	}
	return nil
}

// FO4 returns the nominal FO4 inverter delay (seconds) at supply vdd —
// the delay unit used in the paper's architecture-level figures.
func (dp *Datapath) FO4(vdd float64) float64 {
	return dp.Node.Dev.NominalDelay(vdd)
}

// momentKey identifies one moment table: the whole node value
// (so a custom node never aliases a calibrated one), the chain length
// and the supply.
type momentKey struct {
	node  tech.Node
	chain int
	vdd   float64
}

// momentMemoBound caps the moment-table memo: a table is ≈1 KB and
// thirty-two supplies cover a sweep's working set; a wider churn drops
// the map and rebuilds on demand.
const momentMemoBound = 32

var moments = memo.New[momentKey, *momentTable](momentMemoBound)

// law returns the sampling table of the datapath's iid-paths chip law
// at vdd, from the process-wide law memo (internal/ssta).
func (dp *Datapath) law(vdd float64) *ssta.Table {
	return ssta.LawFor(dp.Node.Dev, dp.Node.Var, vdd, dp.ChainLen, dp.PathsPerLane, dp.Lanes).Table()
}

// ErrNoAnalyticLaw is returned by the analytic chip-law accessors when
// the datapath is configured for correlated sampling, where the chip
// delay does not follow the iid-paths law.
var ErrNoAnalyticLaw = errors.New("simd: analytic chip law requires the default iid-paths law-based sampler")

// analyticLaw returns the law's sampling table when the datapath
// samples from it (the paper's default iid-paths mode, zero spares).
func (dp *Datapath) analyticLaw(vdd float64) (*ssta.Table, error) {
	if dp.Corr != IIDPaths {
		return nil, ErrNoAnalyticLaw
	}
	return dp.law(vdd), nil
}

// ChipQuantile returns the p-quantile (seconds) of the zero-spare chip
// delay read off the law's sampling table: ChipQuantileFn(vdd)(p), the
// quantile map the Monte-Carlo chip draws and the importance sampler
// push uniforms through (see internal/importance and docs/SAMPLING.md).
// Only the default iid-paths sampler has one; correlated datapaths
// return ErrNoAnalyticLaw.
func (dp *Datapath) ChipQuantile(vdd, p float64) (float64, error) {
	tbl, err := dp.analyticLaw(vdd)
	if err != nil {
		return 0, err
	}
	return tbl.Chip(p), nil
}

// ChipQuantileFn returns the chip-delay quantile function u ↦ delay
// (seconds) of the memoized law table, suitable as the monotone model
// handed to the importance-sampling engine: evaluating it is one
// guide-table lookup, a binary search inside the bracket it gives, and
// no allocation. The table is resolved eagerly so parallel samplers
// only read it.
func (dp *Datapath) ChipQuantileFn(vdd float64) (func(u float64) float64, error) {
	tbl, err := dp.analyticLaw(vdd)
	if err != nil {
		return nil, err
	}
	return tbl.Chip, nil
}

// sampler is a datapath's sampling state at one supply: the law or
// moment table its mode reads, resolved once per Monte-Carlo call so
// the per-chip draws never consult the memo.
type sampler struct {
	dp      *Datapath
	vdd     float64
	law     *ssta.Table  // iid-paths lanes
	moments *momentTable // SharedDie and Spatial lanes
}

// sampler resolves the table dp samples its lanes from at vdd.
func (dp *Datapath) sampler(vdd float64) sampler {
	s := sampler{dp: dp, vdd: vdd}
	if dp.Corr == IIDPaths {
		s.law = dp.law(vdd)
	} else {
		s.moments = dp.momentsFor(vdd)
	}
	return s
}

// path draws one critical-path delay.
func (s sampler) path(r *rng.Stream) float64 {
	law := s.law
	if law == nil {
		law = s.dp.law(s.vdd) // correlated modes draw single paths from the iid path law too
	}
	return law.Path(r.Float64())
}

// lanes draws the delays of len(dst) lanes of one chip into dst
// (seconds). In the default (paper) mode every lane is an independent
// draw from the lane law — the maximum of PathsPerLane iid path delays,
// sampled by a single inverse-CDF lookup. SharedDie and Spatial lanes
// read one systematic field: a lane's paths are iid given its field
// value, so the lane inverts the PathsPerLane-th power of the
// die-conditional chain law.
func (s sampler) lanes(r *rng.Stream, dst []float64) {
	if s.law != nil {
		for i := range dst {
			dst[i] = s.law.Lane(r.Float64())
		}
		return
	}
	dp := s.dp
	pinv := 1.0 / float64(dp.PathsPerLane)
	field := newLaneField(dp.Node.Var.SigmaVthD2D, dp.Node.Var.SigmaMulD2D, dp.corrLanes())
	for i := range dst {
		dvth, mul := field.next(r)
		mu, sigma := s.moments.at(dvth)
		u := clampU(math.Pow(r.Float64(), pinv))
		dst[i] = mul * stats.Normal{Mu: mu, Sigma: sigma}.Quantile(u)
	}
}

// corrLanes is the lane field's e-folding length: CorrLanes for
// Spatial, +Inf for SharedDie.
func (dp *Datapath) corrLanes() float64 {
	if dp.Corr == SharedDie {
		return math.Inf(1)
	}
	return dp.CorrLanes
}

// laneField generates stationary AR(1) systematic variation across the
// lane array: x_{l+1} = ρ·x_l + √(1−ρ²)·ε, ρ = exp(−1/CorrLanes). At
// CorrLanes = +Inf (ρ = 1) the field has no innovation and holds its
// first lane's draw: one shared die.
type laneField struct {
	rho, comp      float64
	sigmaV, sigmaM float64
	v, m           float64
	started        bool
}

func newLaneField(sigmaVth, sigmaMul, corrLanes float64) laneField {
	rho := 0.0
	if corrLanes > 0 {
		rho = math.Exp(-1 / corrLanes)
	}
	return laneField{
		rho: rho, comp: math.Sqrt(1 - rho*rho),
		sigmaV: sigmaVth, sigmaM: sigmaMul,
	}
}

// next returns the (ΔVth, multiplicative) systematic pair for the next
// lane. A field without innovation draws nothing after its first lane.
func (f *laneField) next(r *rng.Stream) (dvth, mul float64) {
	switch {
	case !f.started:
		f.v = r.Gauss(0, f.sigmaV)
		f.m = r.Gauss(0, f.sigmaM)
		f.started = true
	case f.comp != 0:
		f.v = f.rho*f.v + f.comp*r.Gauss(0, f.sigmaV)
		f.m = f.rho*f.m + f.comp*r.Gauss(0, f.sigmaM)
	}
	return f.v, math.Exp(f.m)
}

// momentTable interpolates the die-conditional chain moments over the
// die V_th shift, so correlated sampling avoids a quadrature per lane.
type momentTable struct {
	lo, step  float64
	mu, sigma []float64
}

// momentTablePoints is the interpolation grid resolution over ±5σ.
const momentTablePoints = 65

func (dp *Datapath) buildMoments(vdd float64) *momentTable {
	sd := dp.Node.Var.SigmaVthD2D
	lo, hi := -5*sd, 5*sd
	if sd == 0 {
		lo, hi = -1e-6, 1e-6
	}
	t := &momentTable{
		lo:    lo,
		step:  (hi - lo) / (momentTablePoints - 1),
		mu:    make([]float64, momentTablePoints),
		sigma: make([]float64, momentTablePoints),
	}
	for i := 0; i < momentTablePoints; i++ {
		d := lo + float64(i)*t.step
		m, v := device.ChainConditionalMoments(dp.Node.Dev, dp.Node.Var, vdd, dp.ChainLen, d)
		t.mu[i] = m
		t.sigma[i] = math.Sqrt(v)
	}
	return t
}

// at returns linearly interpolated (μ, σ) at die shift d, clamping to
// the table range (±5σ covers all but ~6e-7 of the mass).
func (t *momentTable) at(d float64) (mu, sigma float64) {
	x := (d - t.lo) / t.step
	i := int(x)
	switch {
	case i < 0:
		return t.mu[0], t.sigma[0]
	case i >= len(t.mu)-1:
		return t.mu[len(t.mu)-1], t.sigma[len(t.sigma)-1]
	}
	f := x - float64(i)
	return t.mu[i] + f*(t.mu[i+1]-t.mu[i]), t.sigma[i] + f*(t.sigma[i+1]-t.sigma[i])
}

// momentsFor returns the moment table at vdd from the process-wide
// memo. The table does not depend on the lane geometry.
func (dp *Datapath) momentsFor(vdd float64) *momentTable {
	key := momentKey{node: dp.Node, chain: dp.ChainLen, vdd: vdd}
	t, _ := moments.Get(key, func() (*momentTable, error) { return dp.buildMoments(vdd), nil })
	return t
}

func clampU(u float64) float64 {
	if u < 1e-300 {
		return 1e-300
	}
	if u >= 1 {
		return 1 - 1e-16
	}
	return u
}

// SampleChipDelay draws the chip delay (slowest lane, seconds) of one
// chip with dp.Lanes lanes plus spares spare lanes, after the spares
// slowest lanes have been replaced — i.e. the maximum of the dp.Lanes
// fastest lanes out of dp.Lanes+spares.
func (dp *Datapath) SampleChipDelay(r *rng.Stream, vdd float64, spares int) float64 {
	return dp.sampler(vdd).chip(r, spares)
}

// maxStackLanes is the widest chip (lanes plus spares) drawn into a
// stack array; wider chips allocate one slice per draw.
const maxStackLanes = 256

// chip draws one chip delay with the given spare count. A zero-spare
// law-based chip draws its uniforms in lane order, tracking the largest,
// and inverts only the lanes that can be slowest (ssta.Table.MaxLane);
// with spares, the chip delay is the (spares+1)-th slowest lane, found
// by partial selection. Both return exactly the value the full
// inversion and sort would. A zero-spare chip of at most DefaultLanes
// lanes draws into an array of that size, so the paper's chip zeroes
// no more stack than it fills. A correlated chip selects its slowest
// kept lane the same way at any spare count.
func (s sampler) chip(r *rng.Stream, spares int) float64 {
	if spares == 0 && s.law != nil && s.dp.Lanes <= DefaultLanes {
		var buf [DefaultLanes]float64
		return s.maxLane(r, buf[:s.dp.Lanes])
	}
	total := s.dp.Lanes + spares
	var buf [maxStackLanes]float64
	var lanes []float64
	if total <= len(buf) {
		lanes = buf[:total]
	} else {
		lanes = make([]float64, total)
	}
	if spares == 0 && s.law != nil {
		return s.maxLane(r, lanes)
	}
	s.lanes(r, lanes)
	return stats.Select(lanes, s.dp.Lanes-1)
}

// maxLane draws one uniform per lane of us, in lane order, and returns
// the slowest lane's delay, handing the table the largest uniform found
// while drawing.
func (s sampler) maxLane(r *rng.Stream, us []float64) float64 {
	maxU := 0.0
	for i := range us {
		u := r.Float64()
		us[i] = u
		if u > maxU {
			maxU = u
		}
	}
	return s.law.MaxLane(us, maxU)
}

// ChipDelaysCtx runs an n-sample Monte-Carlo of the chip delay at
// supply vdd with the given spare count. Results are in seconds, in
// sample order, deterministic for a given seed. A cancelled ctx stops
// the sampling and returns ctx's error.
func (dp *Datapath) ChipDelaysCtx(ctx context.Context, seed uint64, n int, vdd float64, spares int) ([]float64, error) {
	s := dp.sampler(vdd)
	return montecarlo.SampleCtx(ctx, seed, n, func(r *rng.Stream) float64 {
		return s.chip(r, spares)
	})
}

// ChipDelaysFO4Ctx is the chip-delay sample of ChipDelaysCtx
// normalized to FO4 delay units at vdd.
func (dp *Datapath) ChipDelaysFO4Ctx(ctx context.Context, seed uint64, n int, vdd float64, spares int) ([]float64, error) {
	ds, err := dp.ChipDelaysCtx(ctx, seed, n, vdd, spares)
	if err != nil {
		return nil, err
	}
	fo4 := dp.FO4(vdd)
	for i := range ds {
		ds[i] /= fo4
	}
	return ds, nil
}

// P99ChipDelayFO4Ctx returns the 99 % point of the FO4-normalized chip
// delay distribution — the paper's operating metric for every
// architecture-level comparison. It reads one spare count from n chip
// draws; a search over spare counts draws one SpareSample instead.
func (dp *Datapath) P99ChipDelayFO4Ctx(ctx context.Context, seed uint64, n int, vdd float64, spares int) (float64, error) {
	ds, err := dp.ChipDelaysFO4Ctx(ctx, seed, n, vdd, spares)
	if err != nil {
		return 0, err
	}
	return stats.QuantileInPlace(ds, 0.99), nil
}

// LaneDelaysCtx draws n independent one-lane samples (the paper's
// "1-wide" curve in Figure 3), in seconds.
func (dp *Datapath) LaneDelaysCtx(ctx context.Context, seed uint64, n int, vdd float64) ([]float64, error) {
	s := dp.sampler(vdd)
	return montecarlo.SampleCtx(ctx, seed, n, func(r *rng.Stream) float64 {
		var lane [1]float64
		s.lanes(r, lane[:])
		return lane[0]
	})
}

// PathDelaysCtx draws n independent single-critical-path samples, in
// seconds.
func (dp *Datapath) PathDelaysCtx(ctx context.Context, seed uint64, n int, vdd float64) ([]float64, error) {
	s := dp.sampler(vdd)
	return montecarlo.SampleCtx(ctx, seed, n, s.path)
}

// SpareSample is one Monte-Carlo draw of n chips, each with dp.Lanes
// lanes plus room for up to a fixed number of spare lanes. Every spare
// count up to that bound reads the same lanes, so a curve or search
// over spare counts carries no independent Monte-Carlo noise between
// its points. A SpareSample is not safe for concurrent use.
type SpareSample struct {
	lanes, width    int       // dp.Lanes; lanes per drawn row, dp.Lanes+maxSpares
	slab            []float64 // n rows of width lane delays, row-major
	fo4             float64
	delays, scratch []float64
}

// SpareSampleCtx draws the lane delays of n chips of dp.Lanes+maxSpares
// lanes at supply vdd. A chip's stream is reset by its index, so the
// first dp.Lanes+a lanes of its row are exactly the lanes a draw with a
// spares would give it. A cancelled ctx stops the sampling and returns
// ctx's error.
func (dp *Datapath) SpareSampleCtx(ctx context.Context, seed uint64, n int, vdd float64, maxSpares int) (*SpareSample, error) {
	width := dp.Lanes + maxSpares
	slab, err := montecarlo.SampleFlatCtx(ctx, seed, n, width, dp.sampler(vdd).lanes)
	if err != nil {
		return nil, err
	}
	return &SpareSample{
		lanes: dp.Lanes, width: width,
		slab:    slab,
		fo4:     dp.FO4(vdd),
		delays:  make([]float64, n),
		scratch: make([]float64, width),
	}, nil
}

// MaxSpares returns the largest spare count the sample can read: the
// maxSpares it was drawn with.
func (s *SpareSample) MaxSpares() int { return s.width - s.lanes }

// Chips returns the number of chips drawn.
func (s *SpareSample) Chips() int { return len(s.delays) }

// ChipDelaysFO4 returns the FO4 chip delays with the given spare count,
// at most MaxSpares, in chip order: each chip keeps the dp.Lanes
// fastest of its first dp.Lanes+spares lanes. It equals, bit for bit,
// dp.ChipDelaysFO4Ctx with the same seed, chip count, supply and spare
// count.
func (s *SpareSample) ChipDelaysFO4(spares int) []float64 {
	return s.fill(make([]float64, len(s.delays)), spares)
}

// P99FO4 returns the 99 % point of ChipDelaysFO4(spares) without
// allocating. It equals, bit for bit, dp.P99ChipDelayFO4Ctx with the
// same seed, chip count, supply and spare count.
func (s *SpareSample) P99FO4(spares int) float64 {
	return stats.QuantileInPlace(s.fill(s.delays, spares), 0.99)
}

// fill writes every chip's FO4 delay with the given spare count into
// dst, one per chip in chip order, and returns dst.
func (s *SpareSample) fill(dst []float64, spares int) []float64 {
	k := s.lanes + spares
	if spares < 0 || k > s.width {
		panic(fmt.Sprintf("simd: %d spares outside the sample's 0..%d", spares, s.MaxSpares()))
	}
	for i := range dst {
		// The physical system with the spares has exactly Lanes+spares
		// lanes; use the first Lanes+spares samples of chip i's row
		// (exchangeable) and keep the Lanes fastest.
		copy(s.scratch[:k], s.slab[i*s.width:i*s.width+k])
		dst[i] = stats.Select(s.scratch[:k], s.lanes-1) / s.fo4
	}
	return dst
}
