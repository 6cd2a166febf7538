// Package variation samples process variation for the die → lane → gate
// hierarchy of the Monte-Carlo study.
//
// The model (see internal/device.Variation) has four components:
//
//   - within-die (WID) threshold-voltage variation: an independent
//     Gaussian V_th shift per gate, caused by random dopant fluctuation
//     and — at 32/22 nm — line-edge roughness;
//   - die-to-die (D2D) threshold-voltage variation: one Gaussian shift
//     shared by every gate on the die;
//   - WID and D2D multiplicative delay factors (log-normal), capturing
//     geometry/mobility variation whose delay impact does not scale with
//     the V_th sensitivity.
//
// A Sampler binds a device model to a variation model and draws delays.
// Its ChainThreeSigmaCtx is the one Monte-Carlo estimator of the paper's
// circuit-level metric: the sweep kernels chain3sigma and gate3sigma and
// the experiments fig2, fig11 and ks all read it.
package variation

import (
	"context"
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/stats"
)

// Sampler draws variation-afflicted gate delays for one technology.
type Sampler struct {
	Dev device.Params
	Var device.Variation
}

// Die holds the correlated draws shared by all gates on one die.
type Die struct {
	DVth float64 // die-to-die threshold shift, volts
	Mul  float64 // die-to-die multiplicative delay factor (≈ 1)
}

// NewSampler returns a sampler for the given device and variation model.
func NewSampler(dev device.Params, v device.Variation) *Sampler {
	return &Sampler{Dev: dev, Var: v}
}

// Die draws the correlated die-level variation.
func (s *Sampler) Die(r *rng.Stream) Die {
	return Die{
		DVth: r.Gauss(0, s.Var.SigmaVthD2D),
		Mul:  math.Exp(r.Gauss(0, s.Var.SigmaMulD2D)),
	}
}

// GateVth draws one gate's full threshold voltage on the given die.
func (s *Sampler) GateVth(r *rng.Stream, die Die) float64 {
	return s.Dev.Vth0 + die.DVth + r.Gauss(0, s.Var.SigmaVthWID)
}

// GateDelay draws one gate's delay at supply vdd on the given die,
// including both threshold and multiplicative variation.
func (s *Sampler) GateDelay(r *rng.Stream, vdd float64, die Die) float64 {
	vth := s.GateVth(r, die)
	mul := math.Exp(r.Gauss(0, s.Var.SigmaMulWID))
	return s.Dev.Delay(vdd, vth) * die.Mul * mul
}

// ChainDelay draws the delay of an n-gate chain at supply vdd on the
// given die by summing n independent gate draws. This is the exact
// (gate-level) path model; internal/simd also provides a moment-matched
// fast path validated against this one.
func (s *Sampler) ChainDelay(r *rng.Stream, vdd float64, n int, die Die) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.GateDelay(r, vdd, die)
	}
	return sum
}

// FreshChainDelay draws a chain delay on a freshly drawn die, matching
// the paper's circuit-level experiments where every Monte-Carlo sample
// is an independent chip.
func (s *Sampler) FreshChainDelay(r *rng.Stream, vdd float64, n int) float64 {
	return s.ChainDelay(r, vdd, n, s.Die(r))
}

// FreshGateDelay draws a single-gate delay on a freshly drawn die.
func (s *Sampler) FreshGateDelay(r *rng.Stream, vdd float64) float64 {
	return s.GateDelay(r, vdd, s.Die(r))
}

// ChainThreeSigmaCtx returns the paper's 3σ/μ (%) of samples chains at
// supply vdd, each on a fresh die, drawn from seed: one value per chain
// length, in the order of lengths, which must not descend. Each sample
// draws one chain at the longest length and reads every shorter length
// as a prefix of it, summed in gate order, so the value at each length
// has the bits of stats.ThreeSigmaOverMu over FreshChainDelay(r, vdd, n)
// and of a call with that length alone. A gate is a chain of one:
// FreshChainDelay(r, vdd, 1) gives FreshGateDelay's bits. A cancelled
// ctx stops the sampling and returns ctx's error.
func (s *Sampler) ChainThreeSigmaCtx(ctx context.Context, seed uint64, samples int, vdd float64, lengths ...int) ([]float64, error) {
	for j := 1; j < len(lengths); j++ {
		if lengths[j] < lengths[j-1] {
			panic(fmt.Sprintf("variation: chain lengths %v descend", lengths))
		}
	}
	width := len(lengths)
	slab, err := montecarlo.SampleFlatCtx(ctx, seed, samples, width, func(r *rng.Stream, dst []float64) {
		die := s.Die(r)
		var sum float64
		gates := 0
		for j, n := range lengths {
			for ; gates < n; gates++ {
				sum += s.GateDelay(r, vdd, die)
			}
			dst[j] = sum
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, width)
	xs := slab // one length: the slab is its column, gathered in place
	if width != 1 {
		xs = make([]float64, samples)
	}
	for j := range out {
		for i := range xs {
			xs[i] = slab[i*width+j]
		}
		out[j] = stats.ThreeSigmaOverMu(xs)
	}
	return out, nil
}
