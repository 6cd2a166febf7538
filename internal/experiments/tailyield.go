package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/importance"
	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func init() {
	register("tailyield", Architecture, 10000,
		"rare-event tail yield at 0.5V, 22nm: plain MC vs importance sampling at 2-4 sigma targets (extension)", runTailYield)
}

// TailYieldRow is one sigma level of the MC-vs-IS comparison.
type TailYieldRow struct {
	Sigma       float64 // tail target, standard-normal units
	AnalyticPPM float64 // (1−Φ(k))·1e6, exact under the chip law
	MCPPM       float64 // plain-MC estimate (MCSamples draws)
	MCErrPPM    float64 // its delta-method standard error
	ISPPM       float64 // importance-sampling estimate (ISSamples draws)
	ISErrPPM    float64 // its delta-method standard error
	ESS         float64 // effective sample size of the IS weights
	Reduction   float64 // equal-accuracy MC samples per IS sample
}

// TailYieldResult is an extension beyond the paper: the sign-off
// question "how many chips miss a k-sigma delay target" answered three
// ways — analytically from the chip law, by plain Monte-Carlo, and by
// the importance sampler with a tenth of the MC budget — as the live
// demonstration of the docs/SAMPLING.md contract.
type TailYieldResult struct {
	Node      tech.Node
	Vdd       float64
	MCSamples int
	ISSamples int
	Rows      []TailYieldRow
}

// ID implements Result.
func (r *TailYieldResult) ID() string { return "tailyield" }

// Render implements Result.
func (r *TailYieldResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tail yield at %.2f V, %s: MC (%d chips) vs IS (%d chips)\n",
		r.Vdd, r.Node.Name, r.MCSamples, r.ISSamples)
	t := report.NewTable("", "target", "analytic", "MC", "IS", "ESS", "equal-accuracy gain")
	for _, row := range r.Rows {
		t.AddRowf(fmt.Sprintf("%.0fσ", row.Sigma),
			fmt.Sprintf("%.3g ppm", row.AnalyticPPM),
			fmt.Sprintf("%.3g ± %.2g ppm", row.MCPPM, row.MCErrPPM),
			fmt.Sprintf("%.3g ± %.2g ppm", row.ISPPM, row.ISErrPPM),
			fmt.Sprintf("%.0f", row.ESS),
			fmt.Sprintf("%.0f×", row.Reduction))
	}
	b.WriteString(t.String())
	b.WriteString("equal-accuracy gain: MC samples one IS sample replaces at this target\n")
	return b.String()
}

// CSV implements CSVer.
func (r *TailYieldResult) CSV() [][]string {
	rows := [][]string{{"sigma", "analytic_ppm", "mc_ppm", "mc_err_ppm", "is_ppm", "is_err_ppm", "ess", "reduction"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			f(row.Sigma), f(row.AnalyticPPM), f(row.MCPPM), f(row.MCErrPPM),
			f(row.ISPPM), f(row.ISErrPPM), f(row.ESS), f(row.Reduction),
		})
	}
	return rows
}

func runTailYield(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N22
	const vdd = 0.5
	stdNormal := stats.Normal{Mu: 0, Sigma: 1}
	// The canonical datapath's chip law: the table simd.New(node)
	// samples, whose censoring floor the tail estimator reads.
	tbl := ssta.LawFor(node.Dev, node.Var, vdd, tech.ChainLength, simd.DefaultPathsPerLane, simd.DefaultLanes).Table()
	nMC := cfg.ChipSamples
	nIS := nMC / 10
	if nIS < 1000 {
		nIS = 1000
	}
	res := &TailYieldResult{Node: node, Vdd: vdd, MCSamples: nMC, ISSamples: nIS}
	for i, k := range []float64{2, 3, 4} {
		u := stdNormal.CDF(k)
		pTrue := 1 - u
		target, floor := tbl.Chip(u), tbl.ChipFloor(u)
		seed := cfg.Seed + uint64(41+i)

		mcCtx, done := phase(ctx, fmt.Sprintf("mc/%.0fsigma", k))
		pMC, seMC, _, err := importance.TailProbCtx(mcCtx, importance.Params{Mix: 1}, seed, nMC, tbl.Chip, target, floor)
		done()
		if err != nil {
			return nil, err
		}

		isCtx, done := phase(ctx, fmt.Sprintf("is/%.0fsigma", k))
		pIS, seIS, diag, err := importance.TailProbCtx(isCtx, importance.Params{Shift: k}, seed, nIS, tbl.Chip, target, floor)
		done()
		if err != nil {
			return nil, err
		}

		res.Rows = append(res.Rows, TailYieldRow{
			Sigma:       k,
			AnalyticPPM: pTrue * 1e6,
			MCPPM:       pMC * 1e6, MCErrPPM: seMC * 1e6,
			ISPPM: pIS * 1e6, ISErrPPM: seIS * 1e6,
			ESS:       diag.ESS,
			Reduction: pTrue * (1 - pTrue) / (seIS * seIS * float64(nIS)),
		})
	}
	return res, nil
}
