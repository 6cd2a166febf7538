package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/circuit"
	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/variation"
)

func init() {
	register("ks", Circuit, 1000,
		"delay variation of Kogge-Stone adders vs inverter chains across Vdd", runKoggeStone)
}

// KSRow compares delay variation of four circuits at one voltage.
type KSRow struct {
	Vdd    float64
	KS64   float64 // 64-bit Kogge-Stone adder 3σ/μ %
	Ripple float64 // 64-bit ripple-carry adder 3σ/μ %
	Mult16 float64 // 16×16 array multiplier 3σ/μ %
	Chain  float64 // 50-FO4 chain 3σ/μ %
}

// KSResult validates the paper's chain-emulation choice against gate-level
// adders (§3.1 / Drego et al. [7]: a 64-bit Kogge-Stone shows only
// ≈8.4 % delay variation at 0.5 V, close to the 50-FO4 chain's 9.43 %).
// The ripple-carry adder — one long chain with no parallel paths —
// behaves like a pure chain of its own depth.
type KSResult struct {
	Node    tech.Node
	Samples int
	KSDepth int // Kogge-Stone critical-path gate depth
	Rows    []KSRow
}

// ID implements Result.
func (r *KSResult) ID() string { return "ks" }

// Render implements Result.
func (r *KSResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Kogge-Stone validation: 3σ/μ (%%), %s, %d samples (KS depth %d gates)\n",
		r.Node.Name, r.Samples, r.KSDepth)
	t := report.NewTable("", "Vdd", "KS-64 adder", "ripple-64", "mult-16×16", "50-FO4 chain")
	for _, row := range r.Rows {
		t.AddRowf(fmt.Sprintf("%.2f V", row.Vdd),
			fmt.Sprintf("%.2f%%", row.KS64),
			fmt.Sprintf("%.2f%%", row.Ripple),
			fmt.Sprintf("%.2f%%", row.Mult16),
			fmt.Sprintf("%.2f%%", row.Chain))
	}
	b.WriteString(t.String())
	b.WriteString("paper anchor: KS-64 ≈ 8.4% at 0.5 V [7], chain 9.43% — same magnitude.\n")
	return b.String()
}

func runKoggeStone(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N90
	ks := circuit.KoggeStone(64)
	ripple := circuit.RippleCarry(64)
	mult := circuit.ArrayMultiplier(16)
	sampler := variation.NewSampler(node.Dev, node.Var)
	res := &KSResult{Node: node, Samples: cfg.CircuitSamples, KSDepth: ks.Depth()}

	for _, vdd := range []float64{1.0, 0.7, 0.5} {
		seed := cfg.Seed + uint64(vdd*1000)
		ksDelays, err := montecarlo.SampleCtx(ctx, seed+1, cfg.CircuitSamples, func(r *rng.Stream) float64 {
			return ks.Delay(sampler, r, vdd, sampler.Die(r))
		})
		if err != nil {
			return nil, err
		}
		rcDelays, err := montecarlo.SampleCtx(ctx, seed+2, cfg.CircuitSamples, func(r *rng.Stream) float64 {
			return ripple.Delay(sampler, r, vdd, sampler.Die(r))
		})
		if err != nil {
			return nil, err
		}
		multDelays, err := montecarlo.SampleCtx(ctx, seed+4, cfg.CircuitSamples, func(r *rng.Stream) float64 {
			return mult.Delay(sampler, r, vdd, sampler.Die(r))
		})
		if err != nil {
			return nil, err
		}
		// The chain column restates Figure 2's 90 nm (node 0) point.
		cv := fig2Vdd(node, vdd)
		chain, err := sampler.ChainThreeSigmaCtx(ctx, fig2Seed(cfg, 0, cv), cfg.CircuitSamples, cv, tech.ChainLength)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, KSRow{
			Vdd:    vdd,
			KS64:   stats.ThreeSigmaOverMu(ksDelays),
			Ripple: stats.ThreeSigmaOverMu(rcDelays),
			Mult16: stats.ThreeSigmaOverMu(multDelays),
			Chain:  chain[0],
		})
	}
	return res, nil
}
