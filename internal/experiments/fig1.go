package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/variation"
)

func init() {
	register("fig1", Circuit, 1000,
		"delay statistics of an FO4 inverter and a 50-FO4 chain vs Vdd, 90nm", runFig1)
}

// Fig1Row is one supply-voltage point of Figure 1: delay statistics of a
// single FO4 inverter and of a 50-FO4-inverter chain in 90 nm GP.
type Fig1Row struct {
	Vdd        float64
	Gate       stats.Summary
	Chain      stats.Summary
	GateHist   []float64 // normalized histogram shape (24 bins)
	ChainHist  []float64
	PaperGate  float64 // paper-reported 3σ/μ %
	PaperChain float64
}

// Fig1Result reproduces Figure 1 (delay distributions vs supply voltage).
type Fig1Result struct {
	Node    tech.Node
	Samples int
	Rows    []Fig1Row
}

// ID implements Result.
func (r *Fig1Result) ID() string { return "fig1" }

// Render implements Result.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: delay distributions, %s, %d samples/voltage\n", r.Node.Name, r.Samples)
	t := report.NewTable("",
		"Vdd", "gate mean", "gate 3σ/μ", "paper", "chain mean", "chain 3σ/μ", "paper")
	for _, row := range r.Rows {
		t.AddRowf(
			fmt.Sprintf("%.2f V", row.Vdd),
			fmt.Sprintf("%.1f ps", row.Gate.Mean*1e12),
			fmt.Sprintf("%.2f%%", row.Gate.ThreeSigmaOverMu()),
			fmt.Sprintf("%.2f%%", row.PaperGate),
			fmt.Sprintf("%.2f ns", row.Chain.Mean*1e9),
			fmt.Sprintf("%.2f%%", row.Chain.ThreeSigmaOverMu()),
			fmt.Sprintf("%.2f%%", row.PaperChain),
		)
	}
	b.WriteString(t.String())
	b.WriteString("distribution shapes (chain):\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %.2f V %s\n", row.Vdd, report.Sparkline(row.ChainHist))
	}
	return b.String()
}

func runFig1(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N90
	res := &Fig1Result{Node: node, Samples: cfg.CircuitSamples}
	sampler := variation.NewSampler(node.Dev, node.Var)
	for _, a := range tech.Targets90().Anchors {
		vdd := a.Vdd
		gate, err := montecarlo.SampleCtx(ctx, cfg.Seed+uint64(vdd*1000), cfg.CircuitSamples, func(r *rng.Stream) float64 {
			return sampler.FreshGateDelay(r, vdd)
		})
		if err != nil {
			return nil, err
		}
		// The chain column restates Figure 2's 90 nm (node 0) chains.
		cv := fig2Vdd(node, vdd)
		chain, err := montecarlo.SampleCtx(ctx, fig2Seed(cfg, 0, cv), cfg.CircuitSamples, func(r *rng.Stream) float64 {
			return sampler.FreshChainDelay(r, cv, tech.ChainLength)
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig1Row{
			Vdd:        vdd,
			Gate:       stats.Summarize(gate),
			Chain:      stats.Summarize(chain),
			GateHist:   histShape(gate, 24),
			ChainHist:  histShape(chain, 24),
			PaperGate:  a.Gate,
			PaperChain: a.Chain,
		})
	}
	return res, nil
}

// histShape returns the normalized bin counts of a histogram of xs.
func histShape(xs []float64, bins int) []float64 {
	h := stats.HistogramOf(xs, bins)
	out := make([]float64, bins)
	for i, c := range h.Counts {
		out[i] = float64(c)
	}
	return out
}
