package sweep

import (
	"context"

	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/importance"
	"github.com/ntvsim/ntvsim/internal/memo"
	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/sram"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// The SRAM kernels answer the memory-side question the logic kernels
// never could: what fraction of chips have working on-chip memories at
// this (node, Vdd) point. Both estimator modes share one estimand —
// the Monte-Carlo path draws whole chips through sram.ChipSampler, the
// SSTA path integrates the same conditional failure law analytically —
// so mode: auto and the CI property tests compare like with like.

// samplerKey identifies one SRAM chip sampler of the default memory
// model on a calibrated node: its die table is a pure function of
// (node, op, Vdd).
type samplerKey struct {
	node string
	op   sram.Op
	vdd  float64
}

// samplerMemoBound caps the sampler memo: a sampler is ≈2 KB (its
// 257-point die table), and 64 covers every (op, Vdd) a sweep touches.
const samplerMemoBound = 64

var samplers = memo.New[samplerKey, *sram.ChipSampler](samplerMemoBound)

// chipSampler returns the default-model SRAM chip sampler for
// (node, op, Vdd) from the process memo, so repeated grid points — the
// same point under fresh seeds above all — build its die table once.
func chipSampler(node tech.Node, op sram.Op, vdd float64) *sram.ChipSampler {
	smp, _ := samplers.Get(samplerKey{node: node.Name, op: op, vdd: vdd}, func() (*sram.ChipSampler, error) {
		return sram.New(node).NewSampler(op, vdd), nil
	})
	return smp
}

// logicBudget returns the logic-path pass/fail delay threshold in
// seconds: the shared budget rule of the memory-vs-logic comparison.
func logicBudget(node tech.Node, vdd float64) float64 {
	return sram.LogicMarginFO4 * float64(tech.ChainLength) * node.Dev.NominalDelay(vdd)
}

func init() {
	registerKernel(Kernel{
		ID:   "sramreadyield",
		Kind: experiments.Architecture, Unit: "%", DefaultSamples: 10000,
		Description: "chips whose SODA memory map survives the read-timing budget after spare-row repair, in %",
		Eval: func(ctx context.Context, node tech.Node, vdd float64, samples int, seed uint64, _ Options) (float64, *importance.Diagnostics, error) {
			v, err := chipSampler(node, sram.OpRead, vdd).YieldPctCtx(ctx, seed, samples)
			return v, nil, err
		},
		SSTA: func(node tech.Node, vdd float64, _ Options) (float64, error) {
			return 100 * sram.New(node).Yield(sram.OpRead, vdd), nil
		},
	})
	registerKernel(Kernel{
		ID:   "sramwriteyield",
		Kind: experiments.Architecture, Unit: "%", DefaultSamples: 10000,
		Description: "chips whose SODA memory map survives the write-contention budget after spare-row repair, in %",
		Eval: func(ctx context.Context, node tech.Node, vdd float64, samples int, seed uint64, _ Options) (float64, *importance.Diagnostics, error) {
			v, err := chipSampler(node, sram.OpWrite, vdd).YieldPctCtx(ctx, seed, samples)
			return v, nil, err
		},
		SSTA: func(node tech.Node, vdd float64, _ Options) (float64, error) {
			return 100 * sram.New(node).Yield(sram.OpWrite, vdd), nil
		},
	})
	registerKernel(Kernel{
		ID:   "memlogicyield",
		Kind: experiments.Architecture, Unit: "pp", DefaultSamples: 10000,
		Description: "memory read yield minus logic-path yield at the shared margin rule, in percentage points (negative: memory limits the chip)",
		Eval: func(ctx context.Context, node tech.Node, vdd float64, samples int, seed uint64, _ Options) (float64, *importance.Diagnostics, error) {
			fn, err := simd.New(node).ChipQuantileFn(vdd)
			if err != nil {
				return 0, nil, err
			}
			budget := logicBudget(node, vdd)
			smp := chipSampler(node, sram.OpRead, vdd)
			xs, err := montecarlo.SampleCtx(ctx, seed, samples, func(r *rng.Stream) float64 {
				mem := smp.Sample(r)
				logic := 0.0
				if fn(r.Float64()) <= budget {
					logic = 1
				}
				return mem - logic
			})
			if err != nil {
				return 0, nil, err
			}
			return 100 * stats.Mean(xs), nil, nil
		},
		SSTA: func(node tech.Node, vdd float64, _ Options) (float64, error) {
			memYield := sram.New(node).Yield(sram.OpRead, vdd)
			logicYield := 1 - chipLaw(node, vdd).ChipTail(logicBudget(node, vdd))
			return 100 * (memYield - logicYield), nil
		},
	})
}
