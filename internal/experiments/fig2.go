package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/variation"
)

func init() {
	register("fig2", Circuit, 1000,
		"3-sigma/mu of a 50-FO4 chain vs Vdd for the four nodes", runFig2)
}

// Fig2Series is one technology node's 3σ/μ-vs-Vdd curve for a 50-FO4
// chain.
type Fig2Series struct {
	Node     tech.Node
	Vdd      []float64
	ThreeSig []float64 // 3σ/μ %
}

// Fig2Result reproduces Figure 2: chain delay variation vs supply
// voltage for the four technology nodes. Each node is swept from 0.5 V
// to its nominal voltage (the paper simulates 32/22 nm only up to their
// 0.9/0.8 V nominals).
type Fig2Result struct {
	Samples int
	Series  []Fig2Series
}

// ID implements Result.
func (r *Fig2Result) ID() string { return "fig2" }

// Render implements Result.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: 3σ/μ (%%) of a 50-FO4 chain vs Vdd, %d samples/point\n", r.Samples)
	t := report.NewTable("", "Vdd", "90nm GP", "45nm GP", "32nm PTM HP", "22nm PTM HP")
	// Collect union of voltages (all series share the same grid start).
	grid := r.Series[0].Vdd
	for _, v := range grid {
		cells := []string{fmt.Sprintf("%.2f V", v)}
		for _, s := range r.Series {
			cell := "—"
			for i, sv := range s.Vdd {
				if math.Abs(sv-v) < 1e-6 {
					cell = fmt.Sprintf("%.2f%%", s.ThreeSig[i])
				}
			}
			cells = append(cells, cell)
		}
		t.AddRowf(cells...)
	}
	b.WriteString(t.String())
	return b.String()
}

// fig2Grid returns the sweep voltages for a node: 0.50 V up to the
// nominal voltage in 50 mV steps.
func fig2Grid(n tech.Node) []float64 {
	var grid []float64
	for v := 0.50; v <= n.VddNominal+1e-9; v += 0.05 {
		grid = append(grid, v)
	}
	return grid
}

// fig2Vdd returns the point of fig2Grid(n) at vdd. The grid adds 50 mV
// steps, so from 0.60 V up its supplies sit a few ulps off the decimal
// value; a view that restates a Figure 2 or Figure 4 point draws at the
// grid's own supply.
func fig2Vdd(n tech.Node, vdd float64) float64 {
	return fig2Grid(n)[int(math.Round((vdd-0.50)/0.05))]
}

// fig2Seed is the seed of Figure 2's chains on node index ni at grid
// supply vdd. Figure 1's and the Kogge-Stone validation's chain columns
// and Figure 11 draw with it, so they restate Figure 2's points.
func fig2Seed(cfg Config, ni int, vdd float64) uint64 {
	return cfg.Seed + uint64(ni*1000) + uint64(vdd*100)
}

func runFig2(ctx context.Context, cfg Config) (Result, error) {
	res := &Fig2Result{Samples: cfg.CircuitSamples}
	for ni, node := range tech.Nodes() {
		nodeCtx, done := phase(ctx, "node/"+node.Name)
		sampler := variation.NewSampler(node.Dev, node.Var)
		s := Fig2Series{Node: node}
		for _, vdd := range fig2Grid(node) {
			v, err := sampler.ChainThreeSigmaCtx(nodeCtx, fig2Seed(cfg, ni, vdd), cfg.CircuitSamples, vdd, tech.ChainLength)
			if err != nil {
				done()
				return nil, err
			}
			s.Vdd = append(s.Vdd, vdd)
			s.ThreeSig = append(s.ThreeSig, v[0])
		}
		done()
		res.Series = append(res.Series, s)
	}
	return res, nil
}
