package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/power"
	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/sparing"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func init() {
	register("table1", Architecture, 6000,
		"spare FUs required to match nominal 99% delay, with area and power", runTable1)
}

// table1Voltages is the supply-voltage column of Tables 1, 2 and 4.
var table1Voltages = []float64{0.50, 0.55, 0.60, 0.65, 0.70}

// Table1Cell is one node × voltage entry of Table 1.
type Table1Cell struct {
	Node     string
	Vdd      float64
	Search   sparing.SearchResult
	AreaPct  float64 // area overhead, % of PE (∞ if not found)
	PowerPct float64 // power overhead, % of PE
}

// Table1Result reproduces Table 1: the number of spare SIMD FUs required
// to match the nominal-voltage 99 % delay point, with area and power
// overhead, for four nodes across 0.50–0.70 V.
// Paper anchors (90 nm): 28 / 6 / 2 / 1 / 1 spares at 0.50…0.70 V.
type Table1Result struct {
	Samples int
	Limit   int
	Cells   []Table1Cell
}

// ID implements Result.
func (r *Table1Result) ID() string { return "table1" }

// Cell returns the entry for (node name, vdd), or nil.
func (r *Table1Result) Cell(node string, vdd float64) *Table1Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Node == node && abs(c.Vdd-vdd) < 1e-6 {
			return c
		}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render implements Result.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: spares to match nominal 99%% delay (limit %d), %d search samples\n", r.Limit, r.Samples)
	t := report.NewTable("", "node", "Vdd", "spares", "area ovhd", "power ovhd")
	for _, c := range r.Cells {
		spares, area, pow := "—", "—", "—"
		if c.Search.Found {
			spares = fmt.Sprintf("%d", c.Search.Spares)
			area = fmt.Sprintf("%.1f%%", c.AreaPct)
			pow = fmt.Sprintf("%.1f%%", c.PowerPct)
		} else {
			spares = fmt.Sprintf(">%d", r.Limit)
			area = fmt.Sprintf(">%.1f%%", power.SpareAreaOverheadPct(r.Limit))
			pow = fmt.Sprintf(">%.1f%%", power.SparePowerOverheadPct(r.Limit))
		}
		t.AddRowf(c.Node, fmt.Sprintf("%.2f V", c.Vdd), spares, area, pow)
	}
	b.WriteString(t.String())
	return b.String()
}

func runTable1(ctx context.Context, cfg Config) (Result, error) {
	const limit = 128
	res := &Table1Result{Samples: cfg.SearchSamples, Limit: limit}
	for ni, node := range tech.Nodes() {
		nodeCtx, done := phase(ctx, "node/"+node.Name)
		dp := simd.New(node)
		seed := cfg.Seed + uint64(ni)*1313
		base, err := dp.P99ChipDelayFO4Ctx(nodeCtx, seed, cfg.SearchSamples, node.VddNominal, 0)
		if err != nil {
			done()
			return nil, err
		}
		for _, vdd := range table1Voltages {
			sample, err := dp.SpareSampleCtx(nodeCtx, seed+uint64(vdd*1000), cfg.SearchSamples, vdd, limit)
			if err != nil {
				done()
				return nil, err
			}
			sr := sparing.MinSpares(sample, base)
			cell := Table1Cell{Node: node.Name, Vdd: vdd, Search: sr}
			if sr.Found {
				cell.AreaPct = power.SpareAreaOverheadPct(sr.Spares)
				cell.PowerPct = power.SparePowerOverheadPct(sr.Spares)
			}
			res.Cells = append(res.Cells, cell)
		}
		done()
	}
	return res, nil
}
