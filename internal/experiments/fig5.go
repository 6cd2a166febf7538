package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/sparing"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func init() {
	register("fig5", Architecture, 10000,
		"delay distributions of spare-augmented SIMD systems at 0.55V, 90nm", runFig5)
}

// Fig5Result reproduces Figure 5: delay distributions of SIMD duplicated
// systems (128-wide + α spares) at 0.55 V in 90 nm, against the 1 V
// 128-wide baseline whose 99 % point the duplication must match.
type Fig5Result struct {
	Node        tech.Node
	Vdd         float64
	Samples     int
	BaselineP99 float64 // 99% FO4 chip delay of 128-wide @ nominal V
	Alphas      []int
	Summaries   []stats.Summary // FO4 units at Vdd, per alpha
	Hists       [][]float64
	MatchAlpha  sparing.SearchResult // minimal alpha matching the baseline
}

// ID implements Result.
func (r *Fig5Result) ID() string { return "fig5" }

// Render implements Result.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: 128-wide + α spares @%.2f V, %s, %d samples\n", r.Vdd, r.Node.Name, r.Samples)
	fmt.Fprintf(&b, "baseline 128-wide@%.1fV p99 = %.2f FO4\n", r.Node.VddNominal, r.BaselineP99)
	t := report.NewTable("", "spares α", "mean", "p99", "3σ/μ", "meets baseline", "shape")
	for i, a := range r.Alphas {
		meets := "no"
		if r.Summaries[i].P99 <= r.BaselineP99 {
			meets = "yes"
		}
		t.AddRowf(
			fmt.Sprintf("%d", a),
			fmt.Sprintf("%.2f", r.Summaries[i].Mean),
			fmt.Sprintf("%.2f", r.Summaries[i].P99),
			fmt.Sprintf("%.2f%%", r.Summaries[i].ThreeSigmaOverMu()),
			meets,
			report.Sparkline(r.Hists[i]),
		)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "minimal matching duplication: %s\n", r.MatchAlpha)
	return b.String()
}

func runFig5(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N90
	const vdd = 0.55
	dp := simd.New(node)
	res := &Fig5Result{
		Node: node, Vdd: vdd, Samples: cfg.ChipSamples,
		Alphas: []int{0, 2, 4, 6, 8, 16, 28},
	}
	base, err := dp.P99ChipDelayFO4Ctx(ctx, cfg.Seed, cfg.ChipSamples, node.VddNominal, 0)
	if err != nil {
		return nil, err
	}
	res.BaselineP99 = base
	// Every α curve is a prefix of the widest chips' lanes, so one
	// sample drawn at the largest α serves them all. It is garbage once
	// the curves are read, before the wider search sample is drawn.
	curves, err := dp.SpareSampleCtx(ctx, cfg.Seed+11, cfg.ChipSamples, vdd, res.Alphas[len(res.Alphas)-1])
	if err != nil {
		return nil, err
	}
	for _, a := range res.Alphas {
		ds := curves.ChipDelaysFO4(a)
		res.Summaries = append(res.Summaries, stats.Summarize(ds))
		res.Hists = append(res.Hists, histShape(ds, 24))
	}
	sample, err := dp.SpareSampleCtx(ctx, cfg.Seed+11, cfg.SearchSamples, vdd, 128)
	if err != nil {
		return nil, err
	}
	res.MatchAlpha = sparing.MinSpares(sample, res.BaselineP99)
	return res, nil
}
