package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/power"
	"github.com/ntvsim/ntvsim/internal/report"
)

func init() {
	register("fig7", Architecture, 6000,
		"power overhead: structural duplication vs voltage margining", runFig7)
}

// Fig7Point compares the two techniques at one node × voltage.
type Fig7Point struct {
	Node           string
	Vdd            float64
	DupSpares      int
	DupFound       bool
	DupPowerPct    float64
	MarginMV       float64
	MarginPowerPct float64
	Winner         string
}

// Fig7Result reproduces Figure 7: the power-overhead comparison between
// structural duplication and voltage margining for the four nodes.
// The paper's conclusion: duplication wins at high near-threshold
// voltages / large nodes (low variation); margining wins as technology
// scales and Vdd drops.
type Fig7Result struct {
	Samples int
	Points  []Fig7Point
}

// ID implements Result.
func (r *Fig7Result) ID() string { return "fig7" }

// Render implements Result.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: power overhead, duplication vs voltage margining, %d search samples\n", r.Samples)
	t := report.NewTable("", "node", "Vdd", "dup spares", "dup power", "margin", "margin power", "winner")
	for _, p := range r.Points {
		dup, dupP := "—", "—"
		if p.DupFound {
			dup = fmt.Sprintf("%d", p.DupSpares)
			dupP = fmt.Sprintf("%.2f%%", p.DupPowerPct)
		} else {
			dup = fmt.Sprintf(">%d", p.DupSpares-1)
			dupP = fmt.Sprintf(">%.1f%%", p.DupPowerPct)
		}
		t.AddRowf(p.Node, fmt.Sprintf("%.2f V", p.Vdd), dup, dupP,
			fmt.Sprintf("%.1f mV", p.MarginMV), fmt.Sprintf("%.2f%%", p.MarginPowerPct), p.Winner)
	}
	b.WriteString(t.String())
	return b.String()
}

// runFig7 runs Tables 1 and 2, whose cells share one node × Vdd order.
func runFig7(ctx context.Context, cfg Config) (Result, error) {
	t1, err := runTable1(ctx, cfg)
	if err != nil {
		return nil, err
	}
	t2, err := runTable2(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Samples: cfg.SearchSamples}
	for i, c := range t1.(*Table1Result).Cells {
		sr, vr := c.Search, t2.(*Table2Result).Cells[i].Result
		pt := Fig7Point{
			Node: c.Node, Vdd: c.Vdd,
			DupSpares: sr.Spares, DupFound: sr.Found,
			DupPowerPct:    power.SparePowerOverheadPct(sr.Spares),
			MarginMV:       vr.Margin * 1e3,
			MarginPowerPct: vr.PowerPct,
		}
		switch {
		case !sr.Found:
			pt.Winner = "margining"
		case pt.DupPowerPct <= pt.MarginPowerPct:
			pt.Winner = "duplication"
		default:
			pt.Winner = "margining"
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
