package sweep

import (
	"context"
	"errors"
	"sort"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/importance"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/variation"
)

// stdNormal is the standard Gaussian used for sigma-level targets.
var stdNormal = stats.Normal{Mu: 0, Sigma: 1}

// Options carries the sampler knobs a normalized Spec resolved for its
// kernel: which sampler runs ("mc" or "is"), the sigma level of
// tail-yield targets, and the importance-sampling proposal parameters.
// Kernels that predate the sampler knob ignore it entirely.
type Options struct {
	// TailSigma is the sigma level k of the tail target for yield
	// kernels: the threshold is the Φ(k) chip-delay quantile.
	TailSigma float64
	// IS is the proposal for importance-sampling kernels (already
	// normalized: Mix is never zero when the kernel samples).
	IS importance.Params
}

// Kernel is a parameterizable scalar metric evaluated at one grid
// point. Unlike the fixed figure reproductions, a kernel takes the full
// (node, Vdd, samples, seed) coordinate, so the sweep engine can grid
// it freely.
type Kernel struct {
	ID          string
	Kind        experiments.Kind
	Description string
	Unit        string // unit of the scalar, e.g. "%" or "FO4"

	// DefaultSamples fills an omitted samples axis.
	DefaultSamples int

	// IS marks an importance-sampling kernel: it honors Options.IS and
	// returns weight diagnostics. MCTwin/ISTwin name the counterpart
	// kernel the spec-level sampler knob maps between; empty means no
	// counterpart in that direction.
	IS     bool
	ISTwin string
	MCTwin string
	// Tail marks a kernel whose target is the Options.TailSigma
	// chip-delay quantile.
	Tail bool

	// Eval computes the metric. It must be a pure function of its
	// arguments (deterministic seeded sampling) and honor ctx through
	// the montecarlo/simd Ctx entry points. Kernels that sample with
	// likelihood weights also return their weight diagnostics; plain
	// kernels return nil.
	Eval func(ctx context.Context, node tech.Node, vdd float64, samples int, seed uint64, opt Options) (float64, *importance.Diagnostics, error)

	// SSTA evaluates the same estimand from the kernel's analytic
	// (statistical static timing analysis) law — no sampling, no seed,
	// microseconds per point; docs/SSTA.md states the error contract
	// against Eval. Nil for kernels whose estimator is inherently
	// sampled (the importance-sampling kernels); specs asking for mode
	// ssta/auto on those are rejected with ErrModeUnsupported.
	SSTA func(node tech.Node, vdd float64, opt Options) (float64, error)
}

// Modes returns the estimator modes the kernel accepts in Spec.Mode.
func (k Kernel) Modes() []string {
	if k.SSTA != nil {
		return []string{ModeMC, ModeSSTA, ModeAuto}
	}
	return []string{ModeMC}
}

// kernels is the metric registry, keyed by id.
var kernels = map[string]Kernel{}

// ErrKernelRetired marks a spec naming a metric kernel that has left
// the registry; the error names the spec that answers in its place.
var ErrKernelRetired = errors.New("metric kernel retired")

// retiredKernels maps each retired metric id to its replacement.
var retiredKernels = map[string]string{
	// An importance-weighted 0.99-quantile of the chip law's own
	// quantile table: the law's closed-form p99 with sampling noise.
	"p99chipclock_is": `metric "p99chipclock" with mode "ssta"`,
}

func registerKernel(k Kernel) {
	if _, dup := kernels[k.ID]; dup {
		panic("sweep: duplicate kernel " + k.ID)
	}
	kernels[k.ID] = k
}

// KernelIDs returns the registered metric ids in sorted order.
func KernelIDs() []string {
	ids := make([]string, 0, len(kernels))
	for id := range kernels {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Kernels returns the registered metric kernels sorted by id.
func Kernels() []Kernel {
	out := make([]Kernel, 0, len(kernels))
	for _, id := range KernelIDs() {
		out = append(out, kernels[id])
	}
	return out
}

// tailYieldEval evaluates the k-sigma tail loss in ppm — the fraction
// of chips slower than the Φ(k) quantile of the chip-delay law — with
// the given proposal. Params{Mix: 1} is the plain-MC twin (unit
// weights); a shifted defensive mixture is the IS estimator. Both share
// one estimand, one rng layout, and one reduction, so their estimates
// agree within CI tolerance at any sigma where MC converges. The target
// is the quantile map's own Φ(k) point, so the threshold and the
// samples it judges come from one approximation of the law, and the
// table's censoring floor at that point spares the estimator every
// draw that cannot reach it.
func tailYieldEval(ctx context.Context, node tech.Node, vdd float64, samples int, seed uint64, p importance.Params, tailSigma float64) (float64, *importance.Diagnostics, error) {
	tbl := chipLaw(node, vdd).Table()
	u := stdNormal.CDF(tailSigma)
	loss, _, diag, err := importance.TailProbCtx(ctx, p, seed, samples, tbl.Chip, tbl.Chip(u), tbl.ChipFloor(u))
	if err != nil {
		return 0, nil, err
	}
	return loss * 1e6, &diag, nil
}

// tailYieldSSTA is the analytic twin of tailYieldEval: the k-sigma tail
// loss in ppm, the chip law's survival at its own closed-form Φ(k)
// quantile — 1−Φ(k) up to the quantile solver's tolerance, with no
// tabulated step in between.
func tailYieldSSTA(node tech.Node, vdd, tailSigma float64) (float64, error) {
	law := chipLaw(node, vdd)
	return law.ChipTail(law.ChipQuantile(stdNormal.CDF(tailSigma))) * 1e6, nil
}

func init() {
	registerKernel(Kernel{
		ID:   "chain3sigma",
		Kind: experiments.Circuit, Unit: "%", DefaultSamples: 1000,
		Description: "3-sigma/mu (%) of a 50-FO4 inverter-chain delay (Figure 2 generalized)",
		Eval: func(ctx context.Context, node tech.Node, vdd float64, samples int, seed uint64, _ Options) (float64, *importance.Diagnostics, error) {
			v, err := variation.NewSampler(node.Dev, node.Var).ChainThreeSigmaCtx(ctx, seed, samples, vdd, tech.ChainLength)
			if err != nil {
				return 0, nil, err
			}
			return v[0], nil, nil
		},
		SSTA: func(node tech.Node, vdd float64, _ Options) (float64, error) {
			mean, variance := device.ChainMoments(node.Dev, node.Var, vdd, tech.ChainLength)
			return device.ThreeSigmaOverMu(mean, variance), nil
		},
	})
	registerKernel(Kernel{
		ID:   "gate3sigma",
		Kind: experiments.Circuit, Unit: "%", DefaultSamples: 1000,
		Description: "3-sigma/mu (%) of a single FO4 inverter delay",
		Eval: func(ctx context.Context, node tech.Node, vdd float64, samples int, seed uint64, _ Options) (float64, *importance.Diagnostics, error) {
			// A gate is a chain of one.
			v, err := variation.NewSampler(node.Dev, node.Var).ChainThreeSigmaCtx(ctx, seed, samples, vdd, 1)
			if err != nil {
				return 0, nil, err
			}
			return v[0], nil, nil
		},
		SSTA: func(node tech.Node, vdd float64, _ Options) (float64, error) {
			mean, variance := device.GateMoments(node.Dev, node.Var, vdd)
			return device.ThreeSigmaOverMu(mean, variance), nil
		},
	})
	registerKernel(Kernel{
		ID:   "p99chipclock",
		Kind: experiments.Architecture, Unit: "FO4", DefaultSamples: 10000,
		Description: "99%-yield clock of a 128-wide SIMD datapath, in nominal FO4 units",
		Eval: func(ctx context.Context, node tech.Node, vdd float64, samples int, seed uint64, _ Options) (float64, *importance.Diagnostics, error) {
			v, err := simd.New(node).P99ChipDelayFO4Ctx(ctx, seed, samples, vdd, 0)
			return v, nil, err
		},
		SSTA: func(node tech.Node, vdd float64, _ Options) (float64, error) {
			return chipLaw(node, vdd).ChipQuantile(0.99) / node.Dev.NominalDelay(vdd), nil
		},
	})
	registerKernel(Kernel{
		ID:   "tailyield",
		Kind: experiments.Architecture, Unit: "ppm", DefaultSamples: 100000,
		Description: "chips slower than the k-sigma chip-delay target (plain MC), in ppm",
		Tail:        true, ISTwin: "yield_is",
		Eval: func(ctx context.Context, node tech.Node, vdd float64, samples int, seed uint64, opt Options) (float64, *importance.Diagnostics, error) {
			return tailYieldEval(ctx, node, vdd, samples, seed, importance.Params{Mix: 1}, opt.TailSigma)
		},
		SSTA: func(node tech.Node, vdd float64, opt Options) (float64, error) {
			return tailYieldSSTA(node, vdd, opt.TailSigma)
		},
	})
	registerKernel(Kernel{
		ID:   "yield_is",
		Kind: experiments.Architecture, Unit: "ppm", DefaultSamples: 10000,
		Description: "chips slower than the k-sigma chip-delay target (importance sampling), in ppm",
		IS:          true, Tail: true, MCTwin: "tailyield",
		Eval: func(ctx context.Context, node tech.Node, vdd float64, samples int, seed uint64, opt Options) (float64, *importance.Diagnostics, error) {
			return tailYieldEval(ctx, node, vdd, samples, seed, opt.IS, opt.TailSigma)
		},
	})
}
