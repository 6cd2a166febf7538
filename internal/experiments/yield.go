package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/yield"
)

func init() {
	register("yield", Architecture, 10000,
		"parametric yield curves at 0.55V, 90nm: base vs 8 spare lanes (extension)", runYield)
}

// YieldResult is an extension beyond the paper: it generalizes the 99 %
// design point into full parametric-yield curves — the fraction of
// chips meeting a clock target at 0.55 V in 90 nm, without mitigation
// and with 8 spare lanes — and reports the shippable clock at several
// yield requirements.
type YieldResult struct {
	Node    tech.Node
	Vdd     float64
	Spares  int
	Samples int

	Points []yield.Point // yield vs clock grid, base and mitigated

	// Clock (ns) needed at each yield target.
	Targets      []float64
	ClockBase    []float64
	ClockWith    []float64
	SpeedupPct   []float64 // clock improvement from mitigation, %
	PaperP99Base float64   // 99%-yield clock, base (the paper's metric)
	PaperP99With float64
}

// ID implements Result.
func (r *YieldResult) ID() string { return "yield" }

// Render implements Result.
func (r *YieldResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parametric yield at %.2f V, %s: base vs %d spares (%d chips)\n",
		r.Vdd, r.Node.Name, r.Spares, r.Samples)
	t := report.NewTable("", "yield target", "clock (base)", "clock (+spares)", "speedup")
	for i, y := range r.Targets {
		t.AddRowf(fmt.Sprintf("%.1f%%", y*100),
			fmt.Sprintf("%.3f ns", r.ClockBase[i]*1e9),
			fmt.Sprintf("%.3f ns", r.ClockWith[i]*1e9),
			fmt.Sprintf("%.2f%%", r.SpeedupPct[i]))
	}
	b.WriteString(t.String())
	b.WriteString("yield vs clock (sampled grid):\n")
	t2 := report.NewTable("", "T_clk", "yield base", "yield +spares")
	for _, p := range r.Points {
		t2.AddRowf(fmt.Sprintf("%.3f ns", p.TClk*1e9),
			fmt.Sprintf("%.4f", p.Yield), fmt.Sprintf("%.4f", p.YieldWith))
	}
	b.WriteString(t2.String())
	return b.String()
}

// CSV implements CSVer.
func (r *YieldResult) CSV() [][]string {
	rows := [][]string{{"tclk_s", "yield_base", "yield_spares"}}
	for _, p := range r.Points {
		rows = append(rows, []string{f(p.TClk), f(p.Yield), f(p.YieldWith)})
	}
	return rows
}

func runYield(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N90
	const vdd = 0.55
	const spares = 8
	dp := simd.New(node)
	res := &YieldResult{Node: node, Vdd: vdd, Spares: spares, Samples: cfg.ChipSamples}

	pctx, done := phase(ctx, "curve/base")
	base, err := yield.NewCurve(pctx, dp, cfg.Seed+31, cfg.ChipSamples, vdd, 0)
	done()
	if err != nil {
		return nil, err
	}
	pctx, done = phase(ctx, "curve/spares")
	with, err := yield.NewCurve(pctx, dp, cfg.Seed+31, cfg.ChipSamples, vdd, spares)
	done()
	if err != nil {
		return nil, err
	}
	res.Points = yield.Compare(base, with, 12)
	res.Targets = []float64{0.50, 0.90, 0.99, 0.999}
	for _, y := range res.Targets {
		cb, cw := base.ClockAt(y), with.ClockAt(y)
		res.ClockBase = append(res.ClockBase, cb)
		res.ClockWith = append(res.ClockWith, cw)
		res.SpeedupPct = append(res.SpeedupPct, 100*(cb/cw-1))
	}
	res.PaperP99Base = base.ClockAt(0.99)
	res.PaperP99With = with.ClockAt(0.99)
	return res, nil
}
