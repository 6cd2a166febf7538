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
	register("table4", Architecture, 10000,
		"frequency margining: variation-aware clock period and performance drop", runTable4)
}

// Table4Cell is one node × voltage entry of Table 4 (Appendix E).
type Table4Cell struct {
	Node    string
	Vdd     float64
	TClk    float64 // designed clock period, seconds
	TVaClk  float64 // variation-aware clock period, seconds
	DropPct float64 // performance degradation, percent
}

// Table4Result reproduces Table 4: frequency margining — the designed
// clock period T_clk, the variation-aware period T_va-clk covering the
// 99 % chip delay, and the performance drop. The paper's conclusion:
// drops approach ~20 % at advanced nodes, making frequency margining
// unattractive there. Its 99 % chip delays are Figure 4's, so every
// drop is Figure 4's drop at the same node and supply.
type Table4Result struct {
	Samples int
	Cells   []Table4Cell
}

// ID implements Result.
func (r *Table4Result) ID() string { return "table4" }

// Cell returns the entry for (node name, vdd), or nil.
func (r *Table4Result) Cell(node string, vdd float64) *Table4Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Node == node && abs(c.Vdd-vdd) < 1e-6 {
			return c
		}
	}
	return nil
}

// Render implements Result.
func (r *Table4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: frequency margining (T_clk vs variation-aware T_va-clk), %d samples\n", r.Samples)
	t := report.NewTable("", "node", "Vdd", "T_clk", "T_va-clk", "perf drop")
	for _, c := range r.Cells {
		t.AddRowf(c.Node, fmt.Sprintf("%.2f V", c.Vdd),
			fmt.Sprintf("%.2f ns", c.TClk*1e9),
			fmt.Sprintf("%.2f ns", c.TVaClk*1e9),
			fmt.Sprintf("%.2f%%", c.DropPct))
	}
	b.WriteString(t.String())
	return b.String()
}

func runTable4(ctx context.Context, cfg Config) (Result, error) {
	res := &Table4Result{Samples: cfg.ChipSamples}
	for ni, node := range tech.Nodes() {
		dp := simd.New(node)
		vdds := make([]float64, len(table1Voltages))
		for i, vdd := range table1Voltages {
			vdds[i] = fig2Vdd(node, vdd)
		}
		base, p99, err := p99Curve(ctx, dp, fig4Seed(cfg, ni), cfg.ChipSamples, vdds)
		if err != nil {
			return nil, err
		}
		for i, vdd := range vdds {
			res.Cells = append(res.Cells, Table4Cell{
				Node: node.Name, Vdd: vdd,
				TClk:    margin.TargetDelay(dp, vdd, base),
				TVaClk:  p99[i] * dp.FO4(vdd),
				DropPct: 100 * (p99[i]/base - 1),
			})
		}
	}
	return res, nil
}
