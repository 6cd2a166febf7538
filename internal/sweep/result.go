package sweep

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/importance"
	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/resultcache"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// PointResult is one grid point's merged output: its coordinate plus
// the kernel value (metric sweeps) or the rendered artifact (experiment
// sweeps). It carries no execution metadata (cache or scheduling
// state), so the merged result of a sharded run is byte-identical to a
// serial one.
type PointResult struct {
	Point
	Value  float64 `json:"value"`
	Render string  `json:"render,omitempty"`
	// Mode is the estimator that answered this point — ModeSSTA or
	// ModeMC — on sweeps that set Spec.Mode; empty on plain sweeps, so
	// their merged results stay byte-identical to pre-knob releases. On
	// auto sweeps it records which side of the decision band the point
	// fell on. Stamped at merge time by pure recomputation from the
	// spec, never stored in cached shard outputs.
	Mode string `json:"mode,omitempty"`
	// IS carries weight diagnostics for importance-sampled points
	// (docs/SAMPLING.md); nil for plain kernels.
	IS *importance.Diagnostics `json:"is,omitempty"`
}

// Result is the merged output of a sweep, points in grid order.
// It implements experiments.Result (and the CSVer/JSONer wire
// interfaces for metric sweeps), so existing renderers and artifact
// writers work unchanged.
type Result struct {
	Kernel string        `json:"kernel"` // metric or experiment id
	Unit   string        `json:"unit,omitempty"`
	Seed   uint64        `json:"seed"`
	Points []PointResult `json:"points"`
}

// ID implements experiments.Result.
func (r *Result) ID() string { return "sweep/" + r.Kernel }

// Render implements experiments.Result with one table row per grid
// point.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep of %s over %d grid points (seed %d)\n", r.Kernel, len(r.Points), r.Seed)
	if r.Unit != "" || (len(r.Points) > 0 && r.Points[0].Node != "") {
		value := "value"
		if r.Unit != "" {
			value = fmt.Sprintf("value (%s)", r.Unit)
		}
		hasIS, hasMode := r.hasIS(), r.hasMode()
		header := []string{"#", "node", "Vdd", "samples", value}
		if hasIS {
			header = append(header, "ESS", "ESS/N", "max w")
		}
		if hasMode {
			header = append(header, "mode")
		}
		t := report.NewTable("", header...)
		for _, p := range r.Points {
			row := []string{strconv.Itoa(p.Index), p.Node,
				fmt.Sprintf("%.3f V", p.Vdd), strconv.Itoa(p.Samples),
				fmt.Sprintf("%.6g", p.Value)}
			if hasIS {
				ess, frac, maxw := "", "", ""
				if p.IS != nil {
					ess = fmt.Sprintf("%.0f", p.IS.ESS)
					frac = fmt.Sprintf("%.3f", p.IS.ESSFrac)
					if p.IS.Degenerate {
						frac += " (degenerate)"
					}
					maxw = fmt.Sprintf("%.3g", p.IS.MaxW)
				}
				row = append(row, ess, frac, maxw)
			}
			if hasMode {
				row = append(row, p.Mode)
			}
			t.AddRowf(row...)
		}
		b.WriteString(t.String())
		return b.String()
	}
	for _, p := range r.Points {
		fmt.Fprintf(&b, "--- point %d: %d samples ---\n%s\n", p.Index, p.Samples, p.Render)
	}
	return b.String()
}

// hasIS reports whether any point carries importance-weight
// diagnostics, which appends their columns to the rendered table and
// CSV.
func (r *Result) hasIS() bool {
	for _, p := range r.Points {
		if p.IS != nil {
			return true
		}
	}
	return false
}

// hasMode reports whether any point records its estimator, which
// appends the mode column to the rendered table and CSV. Plain sweeps
// never set it, keeping their layouts byte-identical to pre-knob
// releases.
func (r *Result) hasMode() bool {
	for _, p := range r.Points {
		if p.Mode != "" {
			return true
		}
	}
	return false
}

// CSV implements experiments.CSVer for metric sweeps. Sweeps with
// importance-weight diagnostics append ess, ess_frac, max_weight and
// degenerate columns; plain sweeps keep the original five-column
// layout.
func (r *Result) CSV() [][]string {
	hasIS, hasMode := r.hasIS(), r.hasMode()
	header := []string{"index", "node", "vdd_v", "samples", "value"}
	if hasIS {
		header = append(header, "ess", "ess_frac", "max_weight", "degenerate")
	}
	if hasMode {
		header = append(header, "mode")
	}
	rows := [][]string{header}
	for _, p := range r.Points {
		row := []string{
			strconv.Itoa(p.Index), p.Node,
			strconv.FormatFloat(p.Vdd, 'g', -1, 64),
			strconv.Itoa(p.Samples),
			strconv.FormatFloat(p.Value, 'g', -1, 64),
		}
		if hasIS {
			if p.IS != nil {
				row = append(row,
					strconv.FormatFloat(p.IS.ESS, 'g', -1, 64),
					strconv.FormatFloat(p.IS.ESSFrac, 'g', -1, 64),
					strconv.FormatFloat(p.IS.MaxW, 'g', -1, 64),
					strconv.FormatBool(p.IS.Degenerate))
			} else {
				row = append(row, "", "", "", "")
			}
		}
		if hasMode {
			row = append(row, p.Mode)
		}
		rows = append(rows, row)
	}
	return rows
}

// JSON implements experiments.JSONer: the Result itself is the wire
// payload.
func (r *Result) JSON() any { return r }

// shardKey is the content-addressed cache identity of one shard. The
// version tag guards against payload-shape changes across releases.
type shardKey struct {
	V       string  `json:"v"`
	Kernel  string  `json:"kernel"`
	Node    string  `json:"node,omitempty"`
	Vdd     float64 `json:"vdd,omitempty"`
	Samples int     `json:"samples"`
	Seed    uint64  `json:"seed"`
	// Sampler parameterization (tail-yield and importance-sampling
	// kernels only). All-zero for plain kernels, so their keys are
	// byte-identical to pre-sampler releases and stay cache-compatible.
	TailSigma float64 `json:"tail_sigma,omitempty"`
	ISShift   float64 `json:"is_shift,omitempty"`
	ISMix     float64 `json:"is_mix,omitempty"`
	// Mode is set (to ModeSSTA) only for analytically-evaluated shards.
	// Absent for every Monte-Carlo shard — whether from a plain, mc, or
	// auto-refined sweep — so MC keys are byte-identical across modes
	// and to pre-knob releases, and auto-refined shards interoperate
	// with plain sweeps' cache entries.
	Mode string `json:"mode,omitempty"`
}

// keyOf returns the shard's result-cache key. An SSTA-evaluated shard's
// key carries the mode tag and drops the sampling parameterization
// (samples and seed are zeroed — the analytic estimator has neither),
// so ssta sweeps with different sample axes share one cache entry per
// (kernel, node, Vdd, tail target) and an auto sweep's non-refined
// points hit pure-ssta sweeps' entries.
func keyOf(spec Spec, pt Point) string {
	if m, err := spec.pointMode(pt); err == nil && m == ModeSSTA {
		return resultcache.Key(shardKey{
			V: "sweep-shard/v1", Kernel: spec.id(),
			Node: pt.Node, Vdd: pt.Vdd,
			TailSigma: spec.TailSigma, Mode: ModeSSTA,
		})
	}
	return resultcache.Key(shardKey{
		V: "sweep-shard/v1", Kernel: spec.id(),
		Node: pt.Node, Vdd: pt.Vdd, Samples: pt.Samples, Seed: pt.Seed,
		TailSigma: spec.TailSigma, ISShift: spec.ISShift, ISMix: spec.ISMix,
	})
}

// ShardResult is one shard's computed output, wrapped as an
// experiments.Result so it can live in the service's shared result
// cache alongside whole-experiment results.
type ShardResult struct {
	Kernel string  `json:"kernel"`
	Point  Point   `json:"point"`
	Value  float64 `json:"value"`
	Text   string  `json:"render,omitempty"` // experiment shards only
	// IS carries weight diagnostics for importance-sampled shards.
	IS *importance.Diagnostics `json:"is,omitempty"`
}

// ID implements experiments.Result.
func (r *ShardResult) ID() string { return "sweep-shard/" + r.Kernel }

// Render implements experiments.Result.
func (r *ShardResult) Render() string {
	if r.Text != "" {
		return r.Text
	}
	return fmt.Sprintf("%s(node=%s, vdd=%.3f, samples=%d) = %.6g\n",
		r.Kernel, r.Point.Node, r.Point.Vdd, r.Point.Samples, r.Value)
}

// evalPoint computes one grid point under ctx. It is the single
// evaluation path shared by the sharded engine and RunSerial, which is
// what makes the two bit-identical.
func evalPoint(ctx context.Context, spec Spec, pt Point) (*ShardResult, error) {
	if spec.Experiment != "" {
		cfg := experiments.Config{
			Seed:           pt.Seed,
			CircuitSamples: pt.Samples,
			ChipSamples:    pt.Samples,
			SearchSamples:  pt.Samples,
		}
		res, err := experiments.RunCtx(ctx, spec.Experiment, cfg)
		if err != nil {
			return nil, err
		}
		return &ShardResult{Kernel: spec.Experiment, Point: pt, Text: res.Render()}, nil
	}
	k := kernels[spec.Metric]
	node, err := tech.ByName(pt.Node)
	if err != nil {
		return nil, err
	}
	mode, err := spec.pointMode(pt)
	if err != nil {
		return nil, err
	}
	if mode == ModeSSTA {
		v, err := sstaEval(k, node, pt.Vdd, spec.options())
		if err != nil {
			return nil, err
		}
		mSSTAEvals.Inc()
		return &ShardResult{Kernel: spec.Metric, Point: pt, Value: v}, nil
	}
	v, diag, err := k.Eval(ctx, node, pt.Vdd, pt.Samples, pt.Seed, spec.options())
	if err != nil {
		return nil, err
	}
	return &ShardResult{Kernel: spec.Metric, Point: pt, Value: v, IS: diag}, nil
}

// merge assembles the grid-ordered Result from per-point shard outputs.
func merge(spec Spec, points []Point, shards []*ShardResult) *Result {
	res := &Result{Kernel: spec.id(), Seed: spec.Seed}
	if spec.Metric != "" {
		res.Unit = kernels[spec.Metric].Unit
	}
	res.Points = make([]PointResult, 0, len(points))
	for i, pt := range points {
		res.Points = append(res.Points, pointResult(spec, pt, shards[i]))
	}
	return res
}

// pointResult is grid point pt's merged output from its shard's output
// sr (nil: the shard has not finished, and the point carries no value).
func pointResult(spec Spec, pt Point, sr *ShardResult) PointResult {
	// The mode stamp is recomputed from the spec here rather than read
	// from the shard output: cached ShardResults are shared across sweeps
	// with different mode knobs, so a stored stamp would leak one sweep's
	// estimator label into another's result.
	pr := PointResult{Point: pt, Mode: spec.resolvedMode(pt)}
	if sr != nil {
		pr.Value = sr.Value
		pr.Render = sr.Text
		pr.IS = sr.IS
	}
	return pr
}

// RunSerial evaluates the whole sweep in the calling goroutine, one
// grid point after another in index order, bypassing the worker pool
// and the cache. Its merged Result is byte-identical to a sharded run
// of the same spec — the determinism contract pinned by the tests.
func RunSerial(ctx context.Context, spec Spec) (*Result, error) {
	ns, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	points := ns.Grid()
	shards := make([]*ShardResult, len(points))
	for i, pt := range points {
		sr, err := evalPoint(ctx, ns, pt)
		if err != nil {
			return nil, err
		}
		shards[i] = sr
	}
	return merge(ns, points, shards), nil
}
