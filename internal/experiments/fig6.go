package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/margin"
	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func init() {
	register("fig6", Architecture, 10000,
		"voltage-margin read-off for a 128-wide datapath at 600-620mV, 45nm", runFig6)
}

// Fig6Result reproduces Figure 6: delay distributions of a 128-wide SIMD
// datapath at 600–620 mV in 45 nm, together with spare-augmented systems
// at 600 mV, illustrating how the voltage margin is read off against the
// target delay. The paper finds V_M = 15 mV at 600 mV.
type Fig6Result struct {
	Node    tech.Node
	Samples int
	Target  float64 // absolute target delay at 600 mV, seconds

	// Voltage sweep at zero spares.
	Voltages  []float64
	VoltP99   []float64 // p99 chip delay, seconds
	VoltHists [][]float64

	// Spare sweep at 600 mV.
	Spares     []int
	SpareP99   []float64
	SpareHists [][]float64

	Margin margin.VoltageResult // the searched margin at 600 mV
}

// ID implements Result.
func (r *Fig6Result) ID() string { return "fig6" }

// Render implements Result.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: 128-wide @600 mV margin study, %s, %d samples\n", r.Node.Name, r.Samples)
	fmt.Fprintf(&b, "target delay %.3f ns\n", r.Target*1e9)
	t := report.NewTable("voltage sweep (0 spares)", "Vdd", "p99 delay", "≤ target", "shape")
	for i, v := range r.Voltages {
		meets := "no"
		if r.VoltP99[i] <= r.Target {
			meets = "yes"
		}
		t.AddRowf(fmt.Sprintf("%.0f mV", v*1e3),
			fmt.Sprintf("%.3f ns", r.VoltP99[i]*1e9), meets, report.Sparkline(r.VoltHists[i]))
	}
	b.WriteString(t.String())
	t2 := report.NewTable("spare sweep @600 mV", "spares", "p99 delay", "≤ target", "shape")
	for i, a := range r.Spares {
		meets := "no"
		if r.SpareP99[i] <= r.Target {
			meets = "yes"
		}
		t2.AddRowf(fmt.Sprintf("%d", a),
			fmt.Sprintf("%.3f ns", r.SpareP99[i]*1e9), meets, report.Sparkline(r.SpareHists[i]))
	}
	b.WriteString(t2.String())
	fmt.Fprintf(&b, "searched margin: %s (paper: 15 mV)\n", r.Margin)
	return b.String()
}

func runFig6(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N45
	const vdd = 0.600
	dp := simd.New(node)
	res := &Fig6Result{Node: node, Samples: cfg.ChipSamples}

	baseCtx, done := phase(ctx, "baseline")
	base, err := dp.P99ChipDelayFO4Ctx(baseCtx, cfg.Seed, cfg.ChipSamples, node.VddNominal, 0)
	done()
	if err != nil {
		return nil, err
	}
	res.Target = margin.TargetDelay(dp, vdd, base)

	sweepCtx, done := phase(ctx, "voltage-sweep")
	for _, v := range []float64{0.600, 0.605, 0.610, 0.615, 0.620} {
		ds, err := dp.ChipDelaysCtx(sweepCtx, fig8Seed(cfg), cfg.ChipSamples, v, 0)
		if err != nil {
			done()
			return nil, err
		}
		res.Voltages = append(res.Voltages, v)
		res.VoltP99 = append(res.VoltP99, stats.Quantile(ds, 0.99))
		res.VoltHists = append(res.VoltHists, histShape(ds, 24))
	}
	done()
	spareCtx, done := phase(ctx, "spare-sweep")
	for _, a := range []int{0, 4, 8, 16, 32} {
		ds, err := dp.ChipDelaysCtx(spareCtx, fig8Seed(cfg), cfg.ChipSamples, vdd, a)
		if err != nil {
			done()
			return nil, err
		}
		res.Spares = append(res.Spares, a)
		res.SpareP99 = append(res.SpareP99, stats.Quantile(ds, 0.99))
		res.SpareHists = append(res.SpareHists, histShape(ds, 24))
	}
	done()
	searchCtx, done := phase(ctx, "margin-search")
	vr, err := margin.VoltageMarginCtx(searchCtx, dp, fig8Seed(cfg), cfg.SearchSamples, vdd, res.Target, 0.1e-3, 0)
	done()
	if err != nil {
		return nil, err
	}
	res.Margin = vr
	return res, nil
}
