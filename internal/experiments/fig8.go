package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/margin"
	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func init() {
	register("fig8", Architecture, 10000,
		"99% chip delay vs spare count at 600-620mV, 45nm", runFig8)
	register("table3", Architecture, 10000,
		"(spares, margin) combinations reaching the 600mV target delay", runTable3)
}

// Fig8Result reproduces Figure 8: the 99 % chip delay of a 128-wide
// datapath at 600–620 mV in 45 nm as a function of spare count, showing
// which (spares, margin) combinations reach the 600 mV target delay.
type Fig8Result struct {
	Node    tech.Node
	Samples int
	Target  float64 // seconds

	Voltages []float64
	Spares   []int
	// P99[i][j]: 99% chip delay at Voltages[i] with Spares[j], seconds.
	P99 [][]float64
}

// ID implements Result.
func (r *Fig8Result) ID() string { return "fig8" }

// Render implements Result.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: p99 chip delay (ns) vs spares and supply, %s, %d samples\n", r.Node.Name, r.Samples)
	fmt.Fprintf(&b, "target %.3f ns (* marks combinations meeting it)\n", r.Target*1e9)
	headers := []string{"Vdd \\ spares"}
	for _, a := range r.Spares {
		headers = append(headers, fmt.Sprintf("%d", a))
	}
	t := report.NewTable("", headers...)
	for i, v := range r.Voltages {
		cells := []string{fmt.Sprintf("%.0f mV", v*1e3)}
		for j := range r.Spares {
			mark := ""
			if r.P99[i][j] <= r.Target {
				mark = "*"
			}
			cells = append(cells, fmt.Sprintf("%.3f%s", r.P99[i][j]*1e9, mark))
		}
		t.AddRowf(cells...)
	}
	b.WriteString(t.String())
	return b.String()
}

// fig8Seed is the seed of Figure 8's chips at every supply and spare
// count. Figure 6's sweeps and margin search draw with it, so they
// restate Figure 8's 0-spare column and 600 mV row.
func fig8Seed(cfg Config) uint64 {
	return cfg.Seed + 23
}

func runFig8(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N45
	const vdd = 0.600
	dp := simd.New(node)
	res := &Fig8Result{
		Node: node, Samples: cfg.ChipSamples,
		Voltages: []float64{0.600, 0.605, 0.610, 0.615, 0.620},
		Spares:   []int{0, 1, 2, 4, 8, 16, 26, 32},
	}
	base, err := dp.P99ChipDelayFO4Ctx(ctx, cfg.Seed, cfg.ChipSamples, node.VddNominal, 0)
	if err != nil {
		return nil, err
	}
	res.Target = margin.TargetDelay(dp, vdd, base)
	for _, v := range res.Voltages {
		// One draw at the largest spare count answers every column.
		sample, err := dp.SpareSampleCtx(ctx, fig8Seed(cfg), cfg.ChipSamples, v, res.Spares[len(res.Spares)-1])
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(res.Spares))
		fo4 := dp.FO4(v) // convert each voltage's FO4 units back to seconds
		for j, a := range res.Spares {
			row[j] = sample.P99FO4(a) * fo4
		}
		res.P99 = append(res.P99, row)
	}
	return res, nil
}

// Table3Result reproduces Table 3: design choices for a 128-wide system
// at 600 mV in 45 nm — combinations of duplication and voltage margining
// with their total power overhead.
// Paper: (26, 0 mV) 4.3 %, (8, 5 mV) 2.0 %, (2, 10 mV) 1.7 %,
// (1, 15 mV) 2.3 %, (0, 17 mV) 2.4 %; the small combination wins.
type Table3Result struct {
	Node    tech.Node
	Vdd     float64
	Samples int
	Choices []margin.Choice
	Best    margin.Choice
}

// ID implements Result.
func (r *Table3Result) ID() string { return "table3" }

// Render implements Result.
func (r *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: design choices for 128-wide @%.0f mV, %s, %d search samples\n",
		r.Vdd*1e3, r.Node.Name, r.Samples)
	t := report.NewTable("", "duplications", "voltage margin", "power overhead")
	for _, c := range r.Choices {
		t.AddRowf(fmt.Sprintf("%d", c.Spares),
			fmt.Sprintf("%.1f mV", c.Margin*1e3),
			fmt.Sprintf("%.2f%%", c.PowerPct))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "best: %s\n", r.Best)
	return b.String()
}

func runTable3(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N45
	const vdd = 0.600
	dp := simd.New(node)
	res := &Table3Result{Node: node, Vdd: vdd, Samples: cfg.SearchSamples}
	// Table 2's 45 nm (node 1) baseline and search seeds: the 0-spare
	// row is its 0.60 V cell.
	base, err := dp.P99ChipDelayFO4Ctx(ctx, table2Seed(cfg, 1, 0), cfg.SearchSamples, node.VddNominal, 0)
	if err != nil {
		return nil, err
	}
	target := margin.TargetDelay(dp, vdd, base)
	res.Choices, err = margin.CombinedCtx(ctx, dp, table2Seed(cfg, 1, vdd), cfg.SearchSamples, vdd, target, 0.1e-3,
		[]int{0, 1, 2, 4, 8, 16, 26})
	if err != nil {
		return nil, err
	}
	res.Best = margin.Best(res.Choices)
	return res, nil
}
