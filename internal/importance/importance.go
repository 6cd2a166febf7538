// Package importance implements rare-event importance sampling for the
// study's tail-yield questions, where plain Monte-Carlo needs ~1/p
// samples to see a single event of probability p.
//
// The sampler works in the probit domain. Chip delay under the analytic
// law is a monotone pushforward X = Q(Φ(Z)) of one standard Gaussian
// coordinate Z through the chip quantile function Q (see
// simd.Datapath.ChipQuantileFn), itself built from the per-lane V_th
// Gaussians. Instead of drawing Z from the nominal φ(z), the proposal is
// a defensive two-component mixture
//
//	q(z) = mix·φ(z) + (1−mix)·φ(z−shift)
//
// that keeps a mix-fraction of mass on the nominal distribution and
// shifts the rest by shift standard deviations toward the tail of
// interest. Each draw carries the self-normalized likelihood weight
//
//	w(z) = φ(z)/q(z) = 1 / (mix + (1−mix)·exp(shift·z − shift²/2))
//
// which is bounded above by 1/mix — the defensive component caps weight
// variance, so a badly chosen shift degrades gracefully toward plain MC
// instead of producing unbounded weights.
//
// The effective-sample-size diagnostics (Diagnose, Diagnostics.Merge)
// live in weighted.go, and docs/SAMPLING.md is the statistical
// contract for the sampler and its estimators.
//
// TailProbCtx is the tail estimator the tail-yield kernels run: the
// draws of SampleCtx reduced by the self-normalized tail estimator and
// Diagnose, bit for bit, but without the arithmetic no tail indicator
// reads. The package tests hold it to a reference that keeps every
// draw (TailProb in weighted_test.go). A draw whose
// quantile-map input lies at or below a censoring floor the caller
// proves (ssta.Table.ChipFloor) cannot land above the target, so it is
// neither pushed through the map nor, far enough below, through Φ; at
// Mix = 1 its weight is exactly 1 without an exp.
//
// # Determinism
//
// SampleCtx draws through montecarlo.SampleFlatCtx, so sample index i
// always consumes the (seed, i) rng sub-stream: results are
// bit-identical across GOMAXPROCS and scheduling order, and sharded
// sweeps that partition indices by seed merge byte-identical to a
// serial run.
package importance

import (
	"context"
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/stats"
)

// stdNormal is the standard Gaussian used for the probit map Φ and its
// inverse.
var stdNormal = stats.Normal{Mu: 0, Sigma: 1}

// DefaultMix is the defensive mixture weight used when Params.Mix is
// zero: a quarter of the proposal mass stays on the nominal
// distribution, bounding every likelihood weight by 1/DefaultMix = 4.
const DefaultMix = 0.25

// Params configures the mean-shifted defensive-mixture proposal. The
// zero value (Shift 0, Mix 0) normalizes to a pure-MC proposal with
// the default defensive mix, i.e. unit weights.
type Params struct {
	// Shift is the proposal mean shift θ in standard-normal units;
	// positive values push samples toward the upper (slow-chip) tail.
	// A good default is the sigma level of the tail being estimated.
	Shift float64 `json:"shift"`
	// Mix is the defensive mixture weight λ ∈ (0, 1] kept on the
	// unshifted nominal component. Zero means DefaultMix; 1 disables
	// the shift entirely (plain MC with unit weights).
	Mix float64 `json:"mix"`
}

// Normalized validates p and fills defaults: a zero Mix becomes
// DefaultMix. It returns an error for non-finite parameters or a Mix
// outside (0, 1] — a proposal with no defensive mass has unbounded
// weights and is rejected rather than silently accepted.
func (p Params) Normalized() (Params, error) {
	if math.IsNaN(p.Shift) || math.IsInf(p.Shift, 0) {
		return Params{}, fmt.Errorf("importance: shift must be finite, got %v", p.Shift)
	}
	if math.IsNaN(p.Mix) || p.Mix < 0 || p.Mix > 1 {
		return Params{}, fmt.Errorf("importance: mix must be in (0, 1], got %v", p.Mix)
	}
	if p.Mix == 0 {
		p.Mix = DefaultMix
	}
	return p, nil
}

// draw samples one proposal coordinate z ~ q and returns it with its
// likelihood weight w(z) = φ(z)/q(z). It consumes exactly two variates
// from r (one uniform for the mixture component, one Gaussian), so the
// per-index stream layout is fixed regardless of parameters.
func (p Params) draw(r *rng.Stream) (z, w float64) {
	u := r.Float64()
	z = r.Norm()
	if u >= p.Mix {
		z += p.Shift
	}
	return z, p.weight(z)
}

// weight returns the self-normalized likelihood weight
// w(z) = φ(z)/q(z) = 1/(mix + (1−mix)·exp(shift·z − shift²/2)),
// bounded above by 1/mix by the defensive component.
//
// At mix = 1 (plain MC) the weight is 1/(1 + 0·exp(e)), exactly 1
// whenever exp(e) is finite, so the exp is skipped there. The exponent
// e is at most z²/2, and every finite z the ziggurat returns has
// |z| < 15, so this is every plain-MC draw; the e < maxExpArg test
// still sends the rest (an infinite z, or a shift so large that e
// rounds to +Inf or NaN) through the formula, keeping their bits too.
func (p Params) weight(z float64) float64 {
	e := p.Shift*z - p.Shift*p.Shift/2
	if p.Mix == 1 && e < maxExpArg {
		return 1
	}
	return 1 / (p.Mix + (1-p.Mix)*math.Exp(e))
}

// maxExpArg bounds the exponents whose exp is finite: exp(709) ≈ 8.2e307.
const maxExpArg = 709

// SampleCtx draws n importance-weighted samples of the pushforward
// X = fn(Φ(Z)) with Z from the proposal, returning values and their
// likelihood weights in sample-index order. fn is typically a chip
// quantile function (simd.Datapath.ChipQuantileFn), making X a chip
// delay; it must be safe for concurrent calls.
//
// Draws run through montecarlo.SampleFlatCtx: sample i consumes the
// (seed, i) rng sub-stream, so output is bit-identical across
// GOMAXPROCS and cancellable via ctx. The flat (pointer-free) sampling
// path matters at rare-event sample counts: tens of millions of draws
// allocate one slab and one column slice (the weights are compacted
// into the slab), never a GC-scannable header per sample. The returned
// slices do not overlap and are owned by the caller.
func SampleCtx(ctx context.Context, p Params, seed uint64, n int, fn func(u float64) float64) (xs, ws []float64, err error) {
	p, err = p.Normalized()
	if err != nil {
		return nil, nil, err
	}
	flat, err := montecarlo.SampleFlatCtx(ctx, seed, n, 2, func(r *rng.Stream, dst []float64) {
		z, w := p.draw(r)
		dst[0] = fn(stdNormal.CDF(z))
		dst[1] = w
	})
	if err != nil {
		return nil, nil, err
	}
	// Copy the values out, then compact the weights in place into the
	// slab's front half: the write index i never passes the read index
	// 2i+1, so no weight is overwritten before it is read, and the
	// call peaks at 3n floats (slab plus values) instead of 4n.
	xs = make([]float64, n)
	for i := range xs {
		xs[i] = flat[2*i]
	}
	ws = flat[:n:n]
	for i := range ws {
		ws[i] = flat[2*i+1]
	}
	samplesTotal.Add(float64(n))
	return xs, ws, nil
}

// zMargin is the gap the z-stage of TailProbCtx keeps below the u-stage
// floor: a z whose computed Φ is at most uFloor − zMargin.
const zMargin = 1e-12

// TailProbCtx estimates p = Pr[X > target] for X = fn(Φ(Z)), Z from
// the proposal, with the self-normalized estimator Σwᵢ·1{xᵢ>t}/Σwᵢ,
// and returns it with its delta-method standard error
// √(Σwᵢ²(1{xᵢ>t}−p̂)²)/Σwᵢ and the weight diagnostics. With unit
// weights the two reduce to the binomial estimator and its standard
// error. The three equal, bit for bit, what that estimator and
// Diagnose(ws) return over the draws SampleCtx(ctx, p, seed, n, fn)
// makes: it draws exactly as SampleCtx does (sample i consumes the
// (seed, i) sub-stream) and sums in sample-index order. Like Diagnose,
// it publishes the diagnostics to the package gauges.
//
// It keeps only each draw's (indicator, weight) pair, 2n floats, and
// skips the arithmetic no indicator reads, in two stages:
//
//   - u-stage (exact): uFloor is a level at or below which every u has
//     fn(u) ≤ target (ssta.Table.ChipFloor gives one for a chip
//     quantile map and the target it returns at the tail level; −∞
//     censors nothing). A draw with Φ(z) ≤ uFloor scores 0 without
//     evaluating fn.
//   - z-stage: zFloor is a z whose computed Φ is at most
//     uFloor − zMargin, and a draw with z < zFloor scores 0 without
//     evaluating Φ. This rests on one assumption about math.Erfc: its
//     absolute error stays far below zMargin = 1e-12 (near Φ = 1 it is
//     a few ulps, ≈4e-16). The true Φ is increasing, so for every z
//     below zFloor the computed Φ(z) exceeds the computed Φ(zFloor) by
//     at most twice that error and stays at or below uFloor. The
//     package tests check the bound.
//
// Its allocations are per call (the row slab, one stream per worker),
// never per sample. fn must be safe for concurrent calls.
func TailProbCtx(ctx context.Context, p Params, seed uint64, n int, fn func(u float64) float64, target, uFloor float64) (prob, stderr float64, d Diagnostics, err error) {
	p, err = p.Normalized()
	if err != nil {
		return 0, 0, Diagnostics{}, err
	}
	zFloor := zFloorFor(uFloor)
	rows, err := montecarlo.SampleFlatCtx(ctx, seed, n, 2, func(r *rng.Stream, dst []float64) {
		z, w := p.draw(r)
		h := 0.0
		if !(z < zFloor) {
			if u := stdNormal.CDF(z); !(u <= uFloor) && fn(u) > target {
				h = 1
			}
		}
		dst[0], dst[1] = h, w
	})
	if err != nil {
		return 0, 0, Diagnostics{}, err
	}
	samplesTotal.Add(float64(n))
	// The estimator's and Diagnose's sums, each in sample-index order.
	var sumw, sumwh, sumw2, maxW float64
	for i := 0; i < len(rows); i += 2 {
		w := rows[i+1]
		sumw += w
		if rows[i] == 1 {
			sumwh += w
		}
		sumw2 += w * w
		if w > maxW {
			maxW = w
		}
	}
	d = diagnostics(n, sumw, sumw2, maxW)
	publish(d)
	if sumw == 0 {
		return math.NaN(), math.NaN(), d, nil
	}
	prob = sumwh / sumw
	var v float64
	for i := 0; i < len(rows); i += 2 {
		dv := rows[i+1] * (rows[i] - prob)
		v += dv * dv
	}
	return prob, math.Sqrt(v) / sumw, d, nil
}

// zFloorFor returns TailProbCtx's z-stage floor for uFloor: a z whose
// computed Φ is at most uFloor − zMargin, found from the quantile and
// stepped down, by doubling steps, until Φ confirms it. It returns −∞,
// censoring nothing, when uFloor − zMargin is not positive.
func zFloorFor(uFloor float64) float64 {
	level := uFloor - zMargin
	if !(level > 0) {
		return math.Inf(-1)
	}
	z := stdNormal.Quantile(level)
	for step := 0x1p-52 * math.Max(1, math.Abs(z)); stdNormal.CDF(z) > level; step *= 2 {
		z -= step
	}
	return z
}
