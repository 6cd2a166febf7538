package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func init() {
	register("fig3", Architecture, 10000,
		"delay distributions: path, lane and 128-wide datapath across voltages, 90nm", runFig3)
}

// Fig3Curve is one delay distribution of Figure 3, in FO4 delay units at
// its own supply voltage (the paper's normalization).
type Fig3Curve struct {
	Label   string
	Vdd     float64
	Summary stats.Summary
	Hist    []float64
}

// Fig3Result reproduces Figure 3: delay distributions for one critical
// path at 1 V, one SIMD lane at 1 V, and the 128-wide SIMD datapath at
// 1.0/0.6/0.55/0.5 V, all in 90 nm GP with 10 000 samples.
type Fig3Result struct {
	Node    tech.Node
	Samples int
	Curves  []Fig3Curve
}

// ID implements Result.
func (r *Fig3Result) ID() string { return "fig3" }

// Render implements Result.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: delay distributions (FO4 units), %s, %d samples\n", r.Node.Name, r.Samples)
	t := report.NewTable("", "curve", "mean", "p50", "p99", "3σ/μ", "shape")
	for _, c := range r.Curves {
		t.AddRowf(
			c.Label,
			fmt.Sprintf("%.2f", c.Summary.Mean),
			fmt.Sprintf("%.2f", c.Summary.P50),
			fmt.Sprintf("%.2f", c.Summary.P99),
			fmt.Sprintf("%.2f%%", c.Summary.ThreeSigmaOverMu()),
			report.Sparkline(c.Hist),
		)
	}
	b.WriteString(t.String())
	b.WriteString("Expected ordering: path@1V < 1-wide@1V < 128-wide@1V < 128-wide at lower Vdd.\n")
	return b.String()
}

func runFig3(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N90
	dp := simd.New(node)
	res := &Fig3Result{Node: node, Samples: cfg.ChipSamples}

	toFO4 := func(ds []float64, vdd float64) []float64 {
		f := dp.FO4(vdd)
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = d / f
		}
		return out
	}
	add := func(label string, vdd float64, ds []float64) {
		fo4 := toFO4(ds, vdd)
		res.Curves = append(res.Curves, Fig3Curve{
			Label:   label,
			Vdd:     vdd,
			Summary: stats.Summarize(fo4),
			Hist:    histShape(fo4, 24),
		})
	}

	nominal := node.VddNominal
	paths, err := dp.PathDelaysCtx(ctx, cfg.Seed+1, cfg.ChipSamples, nominal)
	if err != nil {
		return nil, err
	}
	add("critical path @1V", nominal, paths)
	lanes, err := dp.LaneDelaysCtx(ctx, cfg.Seed+2, cfg.ChipSamples, nominal)
	if err != nil {
		return nil, err
	}
	add("1-wide @1V", nominal, lanes)
	// The 128-wide curves are Figure 4's 90 nm (node 0) chips: its
	// nominal baseline, then its grid points.
	chips, err := dp.ChipDelaysCtx(ctx, fig4Seed(cfg, 0), cfg.ChipSamples, nominal, 0)
	if err != nil {
		return nil, err
	}
	add("128-wide @1V", nominal, chips)
	for _, vdd := range []float64{0.6, 0.55, 0.5} {
		v := fig2Vdd(node, vdd)
		chips, err := dp.ChipDelaysCtx(ctx, fig4Seed(cfg, 0), cfg.ChipSamples, v, 0)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("128-wide @%.2fV", vdd), v, chips)
	}
	return res, nil
}
