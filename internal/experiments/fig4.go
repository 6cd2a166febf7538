package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func init() {
	register("fig4", Architecture, 10000,
		"performance drop of a 128-wide SIMD datapath near threshold, four nodes", runFig4)
}

// Fig4Series is one node's performance-drop curve: the relative increase
// of the 99 % FO4 chip delay at near-threshold voltage over the nominal
// voltage baseline.
type Fig4Series struct {
	Node     tech.Node
	Baseline float64 // p99 FO4 chip delay at nominal voltage
	Vdd      []float64
	DropPct  []float64
}

// Fig4Result reproduces Figure 4: performance drop (%) of a 128-wide
// SIMD datapath in the near-threshold region for the four nodes.
// Paper anchors: 90 nm 5 / 2.5 / 1.5 % at 0.50 / 0.55 / 0.60 V;
// 22 nm ≈ 18 % at 0.50 V.
type Fig4Result struct {
	Samples int
	Series  []Fig4Series
}

// ID implements Result.
func (r *Fig4Result) ID() string { return "fig4" }

// Render implements Result.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: performance drop (%%) vs Vdd, 128-wide SIMD, %d samples\n", r.Samples)
	t := report.NewTable("", "Vdd", "90nm GP", "45nm GP", "32nm PTM HP", "22nm PTM HP")
	grid := r.Series[0].Vdd
	for _, v := range grid {
		cells := []string{fmt.Sprintf("%.2f V", v)}
		for _, s := range r.Series {
			cell := "—"
			for i, sv := range s.Vdd {
				if math.Abs(sv-v) < 1e-6 {
					cell = fmt.Sprintf("%.2f%%", s.DropPct[i])
				}
			}
			cells = append(cells, cell)
		}
		t.AddRowf(cells...)
	}
	b.WriteString(t.String())
	return b.String()
}

// Drop returns the performance drop of series s at the given voltage,
// or NaN if the voltage is not on the grid — a convenience for tests.
func (s Fig4Series) Drop(vdd float64) float64 {
	for i, v := range s.Vdd {
		if math.Abs(v-vdd) < 1e-6 {
			return s.DropPct[i]
		}
	}
	return math.NaN()
}

// fig4Seed is the seed of Figure 4's chips on node index ni, at every
// supply and at the nominal baseline. Table 4, the corners comparison
// and Figure 3's 128-wide curves draw with it.
func fig4Seed(cfg Config, ni int) uint64 {
	return cfg.Seed + uint64(ni)*97
}

// p99Curve returns dp's 99 % FO4 chip delay at its nominal supply and
// at each of vdds, n chips drawn from seed at every supply: Figure 4's
// baseline and curve, which Table 4 and the corners comparison restate.
func p99Curve(ctx context.Context, dp *simd.Datapath, seed uint64, n int, vdds []float64) (base float64, p99 []float64, err error) {
	if base, err = dp.P99ChipDelayFO4Ctx(ctx, seed, n, dp.Node.VddNominal, 0); err != nil {
		return 0, nil, err
	}
	p99 = make([]float64, len(vdds))
	for i, vdd := range vdds {
		if p99[i], err = dp.P99ChipDelayFO4Ctx(ctx, seed, n, vdd, 0); err != nil {
			return 0, nil, err
		}
	}
	return base, p99, nil
}

func runFig4(ctx context.Context, cfg Config) (Result, error) {
	res := &Fig4Result{Samples: cfg.ChipSamples}
	for ni, node := range tech.Nodes() {
		nodeCtx, done := phase(ctx, "node/"+node.Name)
		grid := fig2Grid(node)
		base, p99, err := p99Curve(nodeCtx, simd.New(node), fig4Seed(cfg, ni), cfg.ChipSamples, grid)
		done()
		if err != nil {
			return nil, err
		}
		s := Fig4Series{Node: node, Baseline: base, Vdd: grid}
		for _, p := range p99 {
			s.DropPct = append(s.DropPct, 100*(p/base-1))
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
