// Package sweep is a sharded parameter-sweep engine over the study's
// Monte-Carlo kernels and experiments.
//
// A Spec names either a metric kernel (a parameterizable scalar such as
// the 3σ/μ of a 50-FO4 chain) or a registered experiment, plus the grid
// axes to sweep: technology nodes, a supply-voltage range, and per-point
// sample counts. The engine expands the grid into independent shards —
// one per grid point — and executes them across an internal/jobs worker
// pool with per-shard context cancellation and per-shard
// content-addressed result-cache keys, then merges shard outputs into
// one typed, renderable Result in deterministic grid order regardless
// of completion order.
//
// # Seed discipline
//
// Each shard derives its RNG sub-stream seed from (sweep seed, grid
// index) via the same rng.NewSub lattice the Monte-Carlo engine uses
// per sample, so a sharded sweep is bit-identical to a serial
// single-shard run (RunSerial) of the same spec: both evaluate the same
// points with the same derived seeds, only the scheduling differs.
//
// # Caching and crash-resume
//
// Every shard's cache key is the content address of its full
// parameterization (kernel, node, Vdd, samples, derived seed), so
// resubmitting an identical sweep — or one overlapping it at the same
// grid indices — is served shard-by-shard from the cache without
// recomputation; the ntvsim_sweep_shards_cached counter tallies those
// hits. A sweep interrupted mid-run therefore resumes for free: its
// finished shards are cache hits on the next submission.
//
// # Fault tolerance
//
// A shard whose evaluation fails transiently — or panics — is retried
// in place up to Spec.MaxShardRetries times with short seeded backoff;
// because the shard seed is a pure function of (sweep seed, index), a
// retried shard's output is byte-identical to a first-try one, so
// retries never perturb the merged result. Panics are contained by the
// shard runner (the daemon stays up) and treated as retryable. Shards
// that fail permanently count against Spec.FailureBudget; once the
// budget is exceeded the sweep cancels its remaining shards and
// finishes Failed fast, recording the first failure in its Snapshot.
// Spec.ShardTimeoutSec bounds each shard's lifetime via a per-job
// deadline. See docs/ROBUSTNESS.md for the full taxonomy.
package sweep

import (
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/importance"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// MaxShards bounds the grid size of one sweep; specs expanding beyond
// it are rejected at submission.
const MaxShards = 4096

// VddAxis is a closed supply-voltage range swept in fixed steps:
// From, From+Step, …, up to and including To (within 1 µV tolerance).
type VddAxis struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Step float64 `json:"step"`
}

// points expands the axis into its voltage grid, ascending.
func (a VddAxis) points() []float64 {
	n := int((a.To-a.From)/a.Step+1e-6) + 1
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, a.From+float64(i)*a.Step)
	}
	return out
}

// Spec describes one sweep. Exactly one of Metric or Experiment names
// the per-point computation:
//
//   - Metric sweeps evaluate a registered kernel (see Kernels) on the
//     grid nodes × Vdd points × sample counts.
//   - Experiment sweeps run a registered experiment per grid point with
//     all sample knobs set to the point's sample count; their only axis
//     is Samples (experiments pin their own nodes and voltages).
//
// Zero fields follow the registry defaults filled in by Normalized.
type Spec struct {
	Metric     string   `json:"metric,omitempty"`
	Experiment string   `json:"experiment,omitempty"`
	Nodes      []string `json:"nodes,omitempty"`
	Vdd        *VddAxis `json:"vdd,omitempty"`
	Samples    []int    `json:"samples,omitempty"`
	Seed       uint64   `json:"seed,omitempty"`

	// Sampler selects the sampling strategy for kernels that come in
	// both plain-MC and importance-sampling variants: "mc" (the
	// default) or "is". Setting it rewrites Metric to the matching twin
	// kernel, so sampler:"is" with metric:"tailyield" runs yield_is.
	// See docs/SAMPLING.md for when each is trustworthy.
	Sampler string `json:"sampler,omitempty"`
	// Mode selects the estimator: "mc" (the default — Monte-Carlo at
	// every grid point), "ssta" (the kernel's analytic law at every
	// point, microseconds instead of minutes), or "auto" (SSTA screen
	// over the full grid, MC shards only for points within AutoBand of
	// the AutoThreshold decision boundary). Rejected with
	// ErrModeUnsupported for importance-sampling kernels, whose
	// estimator is inherently sampled. See docs/SSTA.md.
	Mode string `json:"mode,omitempty"`
	// AutoBand is the relative half-width of the auto-mode decision
	// band: a point whose SSTA-screened value v satisfies
	// |v − AutoThreshold| ≤ AutoBand·|AutoThreshold| is refined with a
	// Monte-Carlo shard. Zero means DefaultAutoBand; auto mode only.
	AutoBand float64 `json:"auto_band,omitempty"`
	// AutoThreshold is the auto-mode decision boundary, in the kernel's
	// own unit (e.g. FO4 for p99chipclock, ppm for tailyield) — the
	// pass/fail line whose borderline neighborhood deserves MC
	// confirmation. Required (non-zero, finite) for auto mode.
	AutoThreshold float64 `json:"auto_threshold,omitempty"`
	// TailSigma is the sigma level k of the chip-delay tail target for
	// yield kernels: the pass/fail threshold is the Φ(k) quantile of
	// the analytic chip law. Zero means DefaultTailSigma. Rejected for
	// metrics without a tail target.
	TailSigma float64 `json:"tail_sigma,omitempty"`
	// ISShift is the proposal mean shift θ for importance-sampling
	// kernels, in standard-normal units. Zero means the resolved
	// TailSigma: the shifted component centres on the tail target.
	ISShift float64 `json:"is_shift,omitempty"`
	// ISMix is the defensive mixture weight λ ∈ (0, 1] kept on the
	// nominal distribution by importance-sampling kernels; it bounds
	// every likelihood weight by 1/λ. Zero means importance.DefaultMix.
	ISMix float64 `json:"is_mix,omitempty"`

	// MaxShardRetries is how many times a transiently-failed shard
	// evaluation is re-run in place before the shard fails. Zero means
	// DefaultShardRetries; negative disables retries. Retries re-derive
	// the identical (sweep seed, index) shard seed, so a retried shard's
	// output is byte-identical to a first-try one. Not part of the shard
	// cache key.
	MaxShardRetries int `json:"max_shard_retries,omitempty"`
	// FailureBudget is how many shards may fail permanently before the
	// sweep aborts fast: when the count exceeds the budget, remaining
	// shards are cancelled and the sweep finishes Failed. Zero (the
	// default) aborts on the first permanently-failed shard.
	FailureBudget int `json:"failure_budget,omitempty"`
	// ShardTimeoutSec bounds each shard's lifetime — queue wait plus
	// every evaluation attempt — as a per-shard job deadline. A timed-out
	// shard fails (counting against the budget); zero means no timeout.
	ShardTimeoutSec float64 `json:"shard_timeout_seconds,omitempty"`
}

// DefaultShardRetries is the per-shard transient-failure retry budget
// when the spec leaves MaxShardRetries zero.
const DefaultShardRetries = 2

// DefaultTailSigma is the tail-target sigma level when a yield-kernel
// spec leaves TailSigma zero: the paper's sign-off questions live at
// the 4σ point (≈ 32 ppm loss).
const DefaultTailSigma = 4

// shardRetries resolves the spec's retry budget: zero means the
// default, negative means none.
func (s Spec) shardRetries() int {
	switch {
	case s.MaxShardRetries < 0:
		return 0
	case s.MaxShardRetries == 0:
		return DefaultShardRetries
	default:
		return s.MaxShardRetries
	}
}

// Point is one expanded grid coordinate. Seed is the shard's derived
// sub-stream seed — a pure function of (sweep seed, Index).
type Point struct {
	Index   int     `json:"index"`
	Node    string  `json:"node,omitempty"`
	Vdd     float64 `json:"vdd,omitempty"`
	Samples int     `json:"samples"`
	Seed    uint64  `json:"seed"`
}

// subSeed derives a shard seed from the sweep seed and the grid index,
// using the rng sub-stream lattice so distinct indices get decorrelated
// streams. The zero seed is reserved by experiments.Config to mean
// "paper default", so it is mapped away.
func subSeed(seed uint64, idx int) uint64 {
	s := rng.NewSub(seed, idx).Uint64()
	if s == 0 {
		s = 1
	}
	return s
}

// Normalized validates the spec and fills defaulted fields: the seed
// (paper default), the node list (all four nodes), the Vdd axis
// (0.50–0.60 V in 50 mV steps, the paper's near-threshold band) and the
// sample counts (the kernel's or experiment's registry default). The
// returned spec expands to at least one and at most MaxShards points.
func (s Spec) Normalized() (Spec, error) {
	switch {
	case s.Metric != "" && s.Experiment != "":
		return Spec{}, fmt.Errorf("sweep: spec names both metric %q and experiment %q; pick one", s.Metric, s.Experiment)
	case s.Metric == "" && s.Experiment == "":
		return Spec{}, fmt.Errorf("sweep: spec must name a metric (one of %v) or an experiment", KernelIDs())
	}
	if s.Seed == 0 {
		s.Seed = experiments.Default().Seed
	}
	for _, n := range s.Samples {
		if n <= 0 {
			return Spec{}, fmt.Errorf("sweep: sample count %d must be positive", n)
		}
	}
	if s.FailureBudget < 0 {
		return Spec{}, fmt.Errorf("sweep: failure budget %d must not be negative", s.FailureBudget)
	}
	if s.ShardTimeoutSec < 0 || math.IsNaN(s.ShardTimeoutSec) {
		return Spec{}, fmt.Errorf("sweep: shard timeout %g must not be negative", s.ShardTimeoutSec)
	}
	switch s.Sampler {
	case "", "mc", "is":
	default:
		return Spec{}, fmt.Errorf("sweep: sampler %q must be \"mc\" or \"is\"", s.Sampler)
	}
	switch s.Mode {
	case "", ModeMC, ModeSSTA, ModeAuto:
	default:
		return Spec{}, fmt.Errorf("sweep: mode %q must be %q, %q or %q", s.Mode, ModeMC, ModeSSTA, ModeAuto)
	}

	if s.Experiment != "" {
		if s.Sampler != "" || s.TailSigma != 0 || s.ISShift != 0 || s.ISMix != 0 {
			return Spec{}, fmt.Errorf("sweep: sampler knobs apply only to metric sweeps, not experiment %q", s.Experiment)
		}
		if s.Mode != "" || s.AutoBand != 0 || s.AutoThreshold != 0 {
			return Spec{}, fmt.Errorf("sweep: mode applies only to metric sweeps, not experiment %q", s.Experiment)
		}
		info, ok := experiments.Lookup(s.Experiment)
		if !ok {
			return Spec{}, fmt.Errorf("sweep: unknown experiment %q (have %v)", s.Experiment, experiments.IDs())
		}
		if len(s.Nodes) > 0 || s.Vdd != nil {
			return Spec{}, fmt.Errorf("sweep: experiment sweeps take only a samples axis (%q pins its own nodes and voltages)", s.Experiment)
		}
		if len(s.Samples) == 0 {
			n := info.DefaultSamples
			if n == 0 {
				n = 1 // analytic experiment: one shard, samples unused
			}
			s.Samples = []int{n}
		}
		if len(s.Samples) > MaxShards {
			return Spec{}, fmt.Errorf("sweep: %d shards exceeds the limit of %d", len(s.Samples), MaxShards)
		}
		return s, nil
	}

	k, ok := kernels[s.Metric]
	if !ok {
		if repl, retired := retiredKernels[s.Metric]; retired {
			return Spec{}, fmt.Errorf("sweep: metric %q: %w; use %s", s.Metric, ErrKernelRetired, repl)
		}
		return Spec{}, fmt.Errorf("sweep: unknown metric %q (have %v)", s.Metric, KernelIDs())
	}
	// Map the sampler knob onto the kernel's twin, then resolve the
	// sampler parameters into explicit spec fields so the normalized
	// spec — and every shard cache key derived from it — names its full
	// statistical parameterization.
	if s.Sampler == "is" && !k.IS {
		if k.ISTwin == "" {
			return Spec{}, fmt.Errorf("sweep: metric %q has no importance-sampling variant", s.Metric)
		}
		s.Metric, k = k.ISTwin, kernels[k.ISTwin]
	}
	if s.Sampler == "mc" && k.IS {
		s.Metric, k = k.MCTwin, kernels[k.MCTwin]
	}
	if k.IS {
		s.Sampler = "is"
	} else if s.Sampler != "" {
		s.Sampler = "mc"
	}
	if k.Tail {
		if s.TailSigma == 0 {
			s.TailSigma = DefaultTailSigma
		}
		if s.TailSigma < 0 || math.IsNaN(s.TailSigma) {
			return Spec{}, fmt.Errorf("sweep: tail_sigma %g must be positive", s.TailSigma)
		}
	} else if s.TailSigma != 0 {
		return Spec{}, fmt.Errorf("sweep: tail_sigma applies only to tail-yield metrics, not %q", s.Metric)
	}
	if k.IS {
		if s.ISShift == 0 {
			s.ISShift = s.TailSigma
		}
		p, err := importance.Params{Shift: s.ISShift, Mix: s.ISMix}.Normalized()
		if err != nil {
			return Spec{}, fmt.Errorf("sweep: %w", err)
		}
		s.ISShift, s.ISMix = p.Shift, p.Mix
	} else if s.ISShift != 0 || s.ISMix != 0 {
		return Spec{}, fmt.Errorf("sweep: is_shift/is_mix apply only to importance-sampling metrics, not %q", s.Metric)
	}
	if s.Mode == ModeSSTA || s.Mode == ModeAuto {
		if k.SSTA == nil {
			hint := ""
			if k.MCTwin != "" {
				hint = fmt.Sprintf(" (its plain-MC twin %q supports them)", k.MCTwin)
			}
			return Spec{}, fmt.Errorf("sweep: metric %q: %w — mode %q needs one%s", s.Metric, ErrModeUnsupported, s.Mode, hint)
		}
	}
	if s.Mode == ModeAuto {
		if s.AutoThreshold == 0 || math.IsNaN(s.AutoThreshold) || math.IsInf(s.AutoThreshold, 0) {
			return Spec{}, fmt.Errorf("sweep: mode %q needs a non-zero finite auto_threshold decision boundary in the kernel's unit", ModeAuto)
		}
		if s.AutoBand == 0 {
			s.AutoBand = DefaultAutoBand
		}
		if s.AutoBand < 0 || math.IsNaN(s.AutoBand) || math.IsInf(s.AutoBand, 0) {
			return Spec{}, fmt.Errorf("sweep: auto_band %g must be a non-negative finite fraction", s.AutoBand)
		}
	} else if s.AutoBand != 0 || s.AutoThreshold != 0 {
		return Spec{}, fmt.Errorf("sweep: auto_band/auto_threshold apply only to mode %q", ModeAuto)
	}
	// Fill and canonicalize a copy: the caller's backing array may be
	// shared by concurrent evaluations of the same spec.
	s.Nodes = append([]string(nil), s.Nodes...)
	if len(s.Nodes) == 0 {
		for _, n := range tech.Nodes() {
			s.Nodes = append(s.Nodes, n.Name)
		}
	}
	for i, name := range s.Nodes {
		n, err := tech.ByName(name)
		if err != nil {
			return Spec{}, fmt.Errorf("sweep: %w", err)
		}
		s.Nodes[i] = n.Name // canonicalize "22nm" → "22nm PTM HP"
	}
	if s.Vdd == nil {
		s.Vdd = &VddAxis{From: 0.50, To: 0.60, Step: 0.05}
	}
	a := *s.Vdd
	switch {
	case a.Step <= 0:
		return Spec{}, fmt.Errorf("sweep: vdd step %g must be positive", a.Step)
	case a.From <= 0 || a.To < a.From:
		return Spec{}, fmt.Errorf("sweep: vdd range [%g, %g] is not an ascending positive range", a.From, a.To)
	case math.IsNaN(a.From + a.To + a.Step):
		return Spec{}, fmt.Errorf("sweep: vdd axis contains NaN")
	}
	if len(s.Samples) == 0 {
		s.Samples = []int{k.DefaultSamples}
	}
	if n := len(s.Nodes) * len(a.points()) * len(s.Samples); n > MaxShards {
		return Spec{}, fmt.Errorf("sweep: %d shards exceeds the limit of %d", n, MaxShards)
	}
	return s, nil
}

// Grid expands a normalized spec into its points in deterministic
// row-major order: nodes (spec order) × Vdd (ascending) × samples (spec
// order); experiment sweeps iterate the samples axis only. The point
// index is the position in this order and fixes the shard's derived
// seed.
func (s Spec) Grid() []Point {
	var out []Point
	add := func(node string, vdd float64, samples int) {
		idx := len(out)
		out = append(out, Point{
			Index: idx, Node: node, Vdd: vdd, Samples: samples,
			Seed: subSeed(s.Seed, idx),
		})
	}
	if s.Experiment != "" {
		for _, n := range s.Samples {
			add("", 0, n)
		}
		return out
	}
	for _, node := range s.Nodes {
		for _, vdd := range s.Vdd.points() {
			for _, n := range s.Samples {
				add(node, vdd, n)
			}
		}
	}
	return out
}

// options packages a normalized spec's resolved sampler knobs for the
// kernel evaluation.
func (s Spec) options() Options {
	return Options{
		TailSigma: s.TailSigma,
		IS:        importance.Params{Shift: s.ISShift, Mix: s.ISMix},
	}
}

// id returns the spec's kernel identifier (metric or experiment id).
func (s Spec) id() string {
	if s.Experiment != "" {
		return s.Experiment
	}
	return s.Metric
}
