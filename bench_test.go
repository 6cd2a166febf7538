// Package ntvsim's root benchmark harness regenerates every table and
// figure of the paper, one benchmark per artifact. Benchmarks run the
// same experiment constructors as cmd/ntvsim (which prints the full
// rows/series) at reduced Monte-Carlo depth so the whole suite completes
// in minutes; key reproduced quantities are attached as custom metrics.
//
//	go test -bench=. -benchmem
package ntvsim

import (
	"context"
	"testing"

	"github.com/ntvsim/ntvsim/internal/experiments"
)

// benchConfig is sized so every artifact regenerates in ≈seconds while
// preserving the distribution shapes the metrics report.
func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:           20120603,
		CircuitSamples: 250,
		ChipSamples:    600,
		SearchSamples:  600,
	}
}

// run executes the experiment b.N times and returns the last result.
func run(b *testing.B, id string) experiments.Result {
	b.Helper()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunCtx(context.Background(), id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkFig1 regenerates Figure 1: gate and 50-FO4-chain delay
// distributions in 90 nm across 0.5–1.0 V.
func BenchmarkFig1(b *testing.B) {
	res := run(b, "fig1").(*experiments.Fig1Result)
	last := res.Rows[len(res.Rows)-1] // 0.5 V
	b.ReportMetric(last.Gate.ThreeSigmaOverMu(), "gate3σ/μ@0.5V%")
	b.ReportMetric(last.Chain.ThreeSigmaOverMu(), "chain3σ/μ@0.5V%")
}

// BenchmarkFig2 regenerates Figure 2: chain variation vs Vdd for four
// technology nodes.
func BenchmarkFig2(b *testing.B) {
	res := run(b, "fig2").(*experiments.Fig2Result)
	b.ReportMetric(res.Series[3].ThreeSig[0], "22nm3σ/μ@0.5V%")
}

// BenchmarkFig3 regenerates Figure 3: path/lane/chip delay distributions
// in FO4 units.
func BenchmarkFig3(b *testing.B) {
	res := run(b, "fig3").(*experiments.Fig3Result)
	b.ReportMetric(res.Curves[len(res.Curves)-1].Summary.P99, "chipP99FO4@0.5V")
}

// BenchmarkFig4 regenerates Figure 4: performance drop vs Vdd per node.
func BenchmarkFig4(b *testing.B) {
	res := run(b, "fig4").(*experiments.Fig4Result)
	b.ReportMetric(res.Series[0].Drop(0.50), "drop90nm@0.5V%")
	b.ReportMetric(res.Series[3].Drop(0.50), "drop22nm@0.5V%")
}

// BenchmarkFig5 regenerates Figure 5: spare-augmented delay
// distributions at 0.55 V in 90 nm.
func BenchmarkFig5(b *testing.B) {
	res := run(b, "fig5").(*experiments.Fig5Result)
	b.ReportMetric(float64(res.MatchAlpha.Spares), "sparesToMatch")
}

// BenchmarkTable1 regenerates Table 1: required spares and overheads per
// node and voltage.
func BenchmarkTable1(b *testing.B) {
	res := run(b, "table1").(*experiments.Table1Result)
	if c := res.Cell("90nm GP", 0.55); c != nil && c.Search.Found {
		b.ReportMetric(float64(c.Search.Spares), "spares90nm@0.55V")
	}
}

// BenchmarkFig6 regenerates Figure 6: the 45 nm @600 mV margin study.
func BenchmarkFig6(b *testing.B) {
	res := run(b, "fig6").(*experiments.Fig6Result)
	b.ReportMetric(res.Margin.Margin*1e3, "margin@600mV_mV")
}

// BenchmarkTable2 regenerates Table 2: voltage margins and power
// overheads per node and voltage.
func BenchmarkTable2(b *testing.B) {
	res := run(b, "table2").(*experiments.Table2Result)
	if c := res.Cell("90nm GP", 0.50); c != nil {
		b.ReportMetric(c.Result.Margin*1e3, "margin90nm@0.5V_mV")
	}
}

// BenchmarkFig7 regenerates Figure 7: duplication vs margining power
// comparison.
func BenchmarkFig7(b *testing.B) {
	res := run(b, "fig7").(*experiments.Fig7Result)
	wins := 0
	for _, p := range res.Points {
		if p.Winner == "margining" {
			wins++
		}
	}
	b.ReportMetric(float64(wins), "marginingWins")
}

// BenchmarkFig8 regenerates Figure 8: chip delay vs (spares, supply) at
// 600 mV in 45 nm.
func BenchmarkFig8(b *testing.B) {
	res := run(b, "fig8").(*experiments.Fig8Result)
	b.ReportMetric(res.P99[0][0]*1e9, "p99@600mV0spares_ns")
}

// BenchmarkTable3 regenerates Table 3: combined design choices at
// 600 mV in 45 nm.
func BenchmarkTable3(b *testing.B) {
	res := run(b, "table3").(*experiments.Table3Result)
	b.ReportMetric(float64(res.Best.Spares), "bestSpares")
	b.ReportMetric(res.Best.PowerPct, "bestPower%")
}

// BenchmarkTable4 regenerates Table 4: frequency-margining clock periods
// and performance drops.
func BenchmarkTable4(b *testing.B) {
	res := run(b, "table4").(*experiments.Table4Result)
	if c := res.Cell("22nm PTM HP", 0.50); c != nil {
		b.ReportMetric(c.DropPct, "drop22nm@0.5V%")
	}
}

// BenchmarkFig9 regenerates Figure 9: the energy/delay curve across
// operating regions.
func BenchmarkFig9(b *testing.B) {
	res := run(b, "fig9").(*experiments.Fig9Result)
	b.ReportMetric(res.EminVdd, "EminVdd_V")
	b.ReportMetric(res.EnergyNTV/res.Emin, "E(NTV)/Emin")
}

// BenchmarkFig11 regenerates Figure 11: chain-length sweep at 0.55 V.
func BenchmarkFig11(b *testing.B) {
	res := run(b, "fig11").(*experiments.Fig11Result)
	s := res.Series[0]
	b.ReportMetric(s.ThreeSig[0]/s.ThreeSig[len(s.ThreeSig)-1], "gate/chain200")
}

// BenchmarkFig12 regenerates Figure 12: global vs local sparing coverage
// and the XRAM bypass demo.
func BenchmarkFig12(b *testing.B) {
	res := run(b, "fig12").(*experiments.Fig12Result)
	if !res.BypassOK {
		b.Fatal("bypass demo failed")
	}
	b.ReportMetric(res.Bursts[1].Local, "localBurst2Coverage")
}

// BenchmarkKoggeStone regenerates the §3.1 Kogge-Stone validation
// against Drego et al. [7].
func BenchmarkKoggeStone(b *testing.B) {
	res := run(b, "ks").(*experiments.KSResult)
	b.ReportMetric(res.Rows[len(res.Rows)-1].KS64, "KS3σ/μ@0.5V%")
}

// BenchmarkErrorPenalty regenerates the Synctium-motivation sweep:
// SIMD throughput vs per-lane timing-error probability under three
// recovery policies.
func BenchmarkErrorPenalty(b *testing.B) {
	res := run(b, "synctium").(*experiments.ErrorPenaltyResult)
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.FlushRel, "flushSlowdown@p0.1")
	b.ReportMetric(last.DecoupledRel, "decoupledSlowdown@p0.1")
}

// BenchmarkAblation regenerates the correlation-model ablation (an
// extension): spare effectiveness under iid, spatial and shared-die
// variation.
func BenchmarkAblation(b *testing.B) {
	res := run(b, "ablation").(*experiments.AblationResult)
	row := res.Rows[0]
	b.ReportMetric(row.IIDGainPct, "iidGain%")
	b.ReportMetric(row.CorrGainPct, "sharedDieGain%")
}

// BenchmarkYield regenerates the parametric-yield extension: shippable
// clock vs yield target with and without spare lanes.
func BenchmarkYield(b *testing.B) {
	res := run(b, "yield").(*experiments.YieldResult)
	b.ReportMetric(100*(res.PaperP99Base/res.PaperP99With-1), "p99ClockGain%")
}

// BenchmarkITD regenerates the inverse-temperature-dependence extension:
// delay sensitivity to temperature across the voltage range and the
// temperature-insensitive supply point per node.
func BenchmarkITD(b *testing.B) {
	res := run(b, "itd").(*experiments.ITDResult)
	b.ReportMetric(res.Series[0].Inversion, "90nmInversion_V")
}

// BenchmarkCorners regenerates the corner-vs-statistical signoff
// comparison (an extension): the over-margin cost of SS-corner flows at
// near-threshold voltage.
func BenchmarkCorners(b *testing.B) {
	res := run(b, "corners").(*experiments.CornersResult)
	b.ReportMetric(res.Cells[0].OverMarginPct, "overMargin90nm@0.5V%")
}

// BenchmarkApp regenerates the kernel-level FV-vs-NTV energy/throughput
// pricing (an extension): real Diet SODA kernels timed at the
// variation-aware clocks of both operating points.
func BenchmarkApp(b *testing.B) {
	res := run(b, "app").(*experiments.AppResult)
	b.ReportMetric(res.Rows[0].EnergyFV/res.Rows[0].EnergyNTV, "energySaving×")
	b.ReportMetric(res.ClockNTV/res.ClockFV, "slowdown×")
}
