package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/margin"
	"github.com/ntvsim/ntvsim/internal/power"
	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/sparing"
	"github.com/ntvsim/ntvsim/internal/tech"
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

func runFig7(ctx context.Context, cfg Config) (Result, error) {
	const limit = 128
	res := &Fig7Result{Samples: cfg.SearchSamples}
	for ni, node := range tech.Nodes() {
		dp := simd.New(node)
		seed := cfg.Seed + uint64(ni)*3631
		base, err := dp.P99ChipDelayFO4Ctx(ctx, seed, cfg.SearchSamples, node.VddNominal, 0)
		if err != nil {
			return nil, err
		}
		for _, vdd := range table1Voltages {
			sample, err := dp.SpareSampleCtx(ctx, seed+uint64(vdd*1000), cfg.SearchSamples, vdd, limit)
			if err != nil {
				return nil, err
			}
			sr := sparing.MinSpares(sample, base)
			target := margin.TargetDelay(dp, vdd, base)
			vr, err := margin.VoltageMarginCtx(ctx, dp, seed+uint64(vdd*1000), cfg.SearchSamples, vdd, target, 0.1e-3, 0)
			if err != nil {
				return nil, err
			}
			pt := Fig7Point{
				Node: node.Name, Vdd: vdd,
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
	}
	return res, nil
}
