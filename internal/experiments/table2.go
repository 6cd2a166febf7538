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
	register("table2", Architecture, 6000,
		"voltage margin matching nominal variation, and its power overhead", runTable2)
}

// Table2Cell is one node × voltage entry of Table 2.
type Table2Cell struct {
	Node   string
	Vdd    float64
	Result margin.VoltageResult
}

// Table2Result reproduces Table 2: the voltage margin V_M required for a
// 128-wide SIMD datapath at near-threshold voltage to match the
// nominal-voltage variation level, and its power overhead.
// Paper anchors (at 0.50 V): 90 nm 5.8 mV/1.0 %, 45 nm 19.6 mV/3.3 %,
// 32 nm 12.1 mV/2.0 %, 22 nm 16.4 mV/2.8 %.
type Table2Result struct {
	Samples int
	Cells   []Table2Cell
}

// ID implements Result.
func (r *Table2Result) ID() string { return "table2" }

// Cell returns the entry for (node name, vdd), or nil.
func (r *Table2Result) Cell(node string, vdd float64) *Table2Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Node == node && abs(c.Vdd-vdd) < 1e-6 {
			return c
		}
	}
	return nil
}

// Render implements Result.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: required voltage margin V_M and power overhead, %d search samples\n", r.Samples)
	t := report.NewTable("", "node", "Vdd", "V_M", "power ovhd")
	for _, c := range r.Cells {
		t.AddRowf(c.Node, fmt.Sprintf("%.2f V", c.Vdd),
			fmt.Sprintf("%.1f mV", c.Result.Margin*1e3),
			fmt.Sprintf("%.2f%%", c.Result.PowerPct))
	}
	b.WriteString(t.String())
	return b.String()
}

// table2Seed is the seed of Table 2's margin search on node index ni at
// supply vdd; the node's nominal baseline draws from table2Seed(cfg,
// ni, 0). Table 3 and the app extension search with them, so their
// 0-spare margins are Table 2's cells.
func table2Seed(cfg Config, ni int, vdd float64) uint64 {
	return cfg.Seed + uint64(ni)*2357 + uint64(vdd*1000)
}

func runTable2(ctx context.Context, cfg Config) (Result, error) {
	res := &Table2Result{Samples: cfg.SearchSamples}
	const step = 0.1e-3 // 0.1 mV search granularity
	for ni, node := range tech.Nodes() {
		dp := simd.New(node)
		base, err := dp.P99ChipDelayFO4Ctx(ctx, table2Seed(cfg, ni, 0), cfg.SearchSamples, node.VddNominal, 0)
		if err != nil {
			return nil, err
		}
		for _, vdd := range table1Voltages {
			target := margin.TargetDelay(dp, vdd, base)
			vr, err := margin.VoltageMarginCtx(ctx, dp, table2Seed(cfg, ni, vdd), cfg.SearchSamples, vdd, target, step, 0)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, Table2Cell{Node: node.Name, Vdd: vdd, Result: vr})
		}
	}
	return res, nil
}
