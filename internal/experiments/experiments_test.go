package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// runQuick executes an experiment with the reduced regression config.
func runQuick(t *testing.T, id string) Result {
	t.Helper()
	res, err := RunCtx(context.Background(), id, Quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID() != id {
		t.Fatalf("%s: result reports id %q", id, res.ID())
	}
	if res.Render() == "" {
		t.Fatalf("%s: empty render", id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation", "app", "corners", "fig1", "fig11", "fig12", "fig2",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "itd",
		"ks", "sramyield", "synctium", "table1", "table2", "table3", "table4",
		"tailyield", "yield",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d ids %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("id %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := RunCtx(context.Background(), "fig99", Quick()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestConfigNormalize(t *testing.T) {
	c, err := Config{}.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	d := Default()
	if c != d {
		t.Errorf("normalize of zero config = %+v, want defaults", c)
	}
	c, err = Config{Seed: 5}.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	if c.Seed != 5 || c.ChipSamples != d.ChipSamples {
		t.Error("partial config not filled")
	}
}

func TestConfigRejectsNegativeSamples(t *testing.T) {
	for _, cfg := range []Config{
		{CircuitSamples: -1},
		{ChipSamples: -100},
		{SearchSamples: -7},
	} {
		if _, err := cfg.Normalized(); err == nil {
			t.Errorf("Normalized accepted %+v", cfg)
		}
		if _, err := RunCtx(context.Background(), "fig4", cfg); err == nil {
			t.Errorf("RunCtx accepted %+v", cfg)
		}
	}
}

func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, "fig4", Quick()); !errors.Is(err, context.Canceled) {
		t.Errorf("RunCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestSamplingRunnersHonourCancellation calls every registered runner
// that samples (DefaultSamples > 0) directly with an already-cancelled
// context, bypassing RunCtx's early ctx.Err() check: each must stop its
// sampling and return context.Canceled instead of a result.
func TestSamplingRunnersHonourCancellation(t *testing.T) {
	cfg, err := Quick().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sampling := 0
	for _, id := range IDs() {
		e := registry[id]
		if e.info.DefaultSamples == 0 {
			continue
		}
		sampling++
		t.Run(id, func(t *testing.T) {
			res, err := e.runner(ctx, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("runner on a cancelled ctx returned (%T, %v), want context.Canceled", res, err)
			}
		})
	}
	if sampling == 0 {
		t.Fatal("no sampling experiments registered")
	}
}

// TestRunCtxBitIdentical pins the cancellation contract: a live context
// that is never cancelled, carrying a progress reporter, renders exactly
// what context.Background() renders for a sampling-heavy artifact.
func TestRunCtxBitIdentical(t *testing.T) {
	cfg := Config{Seed: 99, CircuitSamples: 100, ChipSamples: 200, SearchSamples: 100}
	a, err := RunCtx(context.Background(), "fig4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := telemetry.NewProgress()
	live, cancel := context.WithCancel(telemetry.WithProgress(context.Background(), p))
	defer cancel()
	b, err := RunCtx(live, "fig4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Error("render under a live ctx with a progress reporter differs from context.Background()")
	}
	if s := p.Snapshot(); s.Total == 0 || s.Done != s.Total {
		t.Errorf("progress = %d/%d, want a finished non-empty count", s.Done, s.Total)
	}
}

// TestFig1Shape asserts Figure 1's claims: 3σ/μ grows as Vdd falls, the
// chain averages variation below the gate level, and the measured values
// land near the paper's (which the calibration enforces).
func TestFig1Shape(t *testing.T) {
	res := runQuick(t, "fig1").(*Fig1Result)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		gate := row.Gate.ThreeSigmaOverMu()
		chain := row.Chain.ThreeSigmaOverMu()
		if chain >= gate {
			t.Errorf("@%gV chain 3σ/μ %v not below gate %v", row.Vdd, chain, gate)
		}
		// Within 25 % of the paper value at quick sample counts.
		if rel(gate, row.PaperGate) > 0.25 {
			t.Errorf("@%gV gate 3σ/μ %v vs paper %v", row.Vdd, gate, row.PaperGate)
		}
		if rel(chain, row.PaperChain) > 0.25 {
			t.Errorf("@%gV chain 3σ/μ %v vs paper %v", row.Vdd, chain, row.PaperChain)
		}
		if i > 0 && row.Vdd >= res.Rows[i-1].Vdd {
			t.Error("rows must be descending in Vdd")
		}
	}
	// 0.5 V gate variation at least 2× the 1.0 V value (paper: 2.28×).
	if r := res.Rows[5].Gate.ThreeSigmaOverMu() / res.Rows[0].Gate.ThreeSigmaOverMu(); r < 1.8 {
		t.Errorf("gate variation amplification ×%v, paper ×2.28", r)
	}
}

func rel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// TestFig2Shape: variation rises as Vdd falls for every node, and
// smaller nodes are worse at 0.55 V (2.5× from 90 to 22 nm).
func TestFig2Shape(t *testing.T) {
	res := runQuick(t, "fig2").(*Fig2Result)
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if s.ThreeSig[0] <= s.ThreeSig[len(s.ThreeSig)-1] {
			t.Errorf("%s: 3σ/μ at 0.5V (%v) not above nominal (%v)",
				s.Node.Name, s.ThreeSig[0], s.ThreeSig[len(s.ThreeSig)-1])
		}
	}
	at055 := func(i int) float64 { return res.Series[i].ThreeSig[1] } // grid: 0.50, 0.55, …
	if r := at055(3) / at055(0); r < 2.0 || r > 3.5 {
		t.Errorf("22nm/90nm at 0.55V = ×%v, paper ≈2.5", r)
	}
}

// TestFig3Shape: the ordering of the six distribution means and the
// right-shift of wide/low-voltage configurations.
func TestFig3Shape(t *testing.T) {
	res := runQuick(t, "fig3").(*Fig3Result)
	if len(res.Curves) != 6 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	means := make([]float64, len(res.Curves))
	for i, c := range res.Curves {
		means[i] = c.Summary.Mean
	}
	// path@1V < 1-wide@1V < 128-wide@1V < 128@0.6 < 128@0.55 < 128@0.5.
	for i := 1; i < len(means); i++ {
		if means[i] <= means[i-1] {
			t.Errorf("curve %q mean %v not above %q mean %v",
				res.Curves[i].Label, means[i], res.Curves[i-1].Label, means[i-1])
		}
	}
	// The path mean is ≈50 FO4 by construction.
	if rel(means[0], 50) > 0.05 {
		t.Errorf("path mean %v FO4, want ≈50", means[0])
	}
}

// TestFig4Shape: perf drop grows as Vdd falls, monotone across nodes at
// 0.5 V; 90 nm @0.5 V ≈ 5 %, 22 nm ≈ 18 %.
func TestFig4Shape(t *testing.T) {
	res := runQuick(t, "fig4").(*Fig4Result)
	for _, s := range res.Series {
		if d := s.Drop(0.50); d < s.Drop(0.60) {
			t.Errorf("%s: drop at 0.5V (%v) below 0.6V (%v)", s.Node.Name, d, s.Drop(0.60))
		}
	}
	d90 := res.Series[0].Drop(0.50)
	d22 := res.Series[3].Drop(0.50)
	if d90 < 2 || d90 > 12 {
		t.Errorf("90nm drop @0.5V = %v%%, paper ≈5%%", d90)
	}
	if d22 < 12 || d22 > 32 {
		t.Errorf("22nm drop @0.5V = %v%%, paper ≈18%%", d22)
	}
	if d22 <= d90 {
		t.Error("22nm must degrade more than 90nm")
	}
}

// TestFig5Shape: spares shift the distribution left and tighten it; a
// finite spare count matches the baseline.
func TestFig5Shape(t *testing.T) {
	res := runQuick(t, "fig5").(*Fig5Result)
	for i := 1; i < len(res.Alphas); i++ {
		if res.Summaries[i].P99 >= res.Summaries[i-1].P99 {
			t.Errorf("p99 not falling with spares: α=%d", res.Alphas[i])
		}
	}
	if !res.MatchAlpha.Found {
		t.Errorf("no matching spare count found: %v", res.MatchAlpha)
	} else if res.MatchAlpha.Spares < 2 || res.MatchAlpha.Spares > 40 {
		t.Errorf("matching spares = %d, paper 6 (same order expected)", res.MatchAlpha.Spares)
	}
	// Tightening: spread with 28 spares below spread with 0.
	if res.Summaries[6].ThreeSigmaOverMu() >= res.Summaries[0].ThreeSigmaOverMu() {
		t.Error("duplication should tighten the distribution")
	}
}

// TestTable1Shape: spare counts grow super-linearly as Vdd falls and
// with technology scaling; 90 nm row is finite everywhere.
func TestTable1Shape(t *testing.T) {
	res := runQuick(t, "table1").(*Table1Result)
	if len(res.Cells) != 20 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	c5 := res.Cell("90nm GP", 0.50)
	c6 := res.Cell("90nm GP", 0.60)
	c7 := res.Cell("90nm GP", 0.70)
	if c5 == nil || c6 == nil || c7 == nil {
		t.Fatal("missing 90nm cells")
	}
	if !c5.Search.Found || !c6.Search.Found || !c7.Search.Found {
		t.Fatal("90nm spare search should succeed at all voltages")
	}
	if !(c5.Search.Spares > c6.Search.Spares && c6.Search.Spares >= c7.Search.Spares) {
		t.Errorf("90nm spares not growing as Vdd falls: %d, %d, %d",
			c5.Search.Spares, c6.Search.Spares, c7.Search.Spares)
	}
	// Growth is super-linear: 0.5 V needs > 3× the 0.6 V count (paper 14×).
	if c5.Search.Spares < 3*c6.Search.Spares {
		t.Errorf("super-linear growth missing: %d vs %d", c5.Search.Spares, c6.Search.Spares)
	}
	// Advanced nodes exhaust the budget at 0.5 V (paper: >128).
	if res.Cell("22nm PTM HP", 0.50).Search.Found {
		t.Error("22nm @0.5V should exceed the 128-spare limit")
	}
	// Overheads are consistent with the power model.
	if c6.AreaPct <= 0 || c6.PowerPct <= 0 {
		t.Error("finite search must report overheads")
	}
}

// TestTable2Shape: margins are positive, tens of mV, grow as Vdd falls
// and with technology scaling; 90 nm @0.5 V near the paper's 5.8 mV.
func TestTable2Shape(t *testing.T) {
	res := runQuick(t, "table2").(*Table2Result)
	for _, node := range []string{"90nm GP", "45nm GP", "32nm PTM HP", "22nm PTM HP"} {
		lo := res.Cell(node, 0.50).Result.Margin
		hi := res.Cell(node, 0.70).Result.Margin
		if lo <= hi {
			t.Errorf("%s: margin at 0.5V (%v) not above 0.7V (%v)", node, lo, hi)
		}
		if lo <= 0 || lo > 0.06 {
			t.Errorf("%s margin %v V outside (0, 60 mV]", node, lo)
		}
	}
	m90 := res.Cell("90nm GP", 0.50).Result.Margin
	if m90 < 2e-3 || m90 > 12e-3 {
		t.Errorf("90nm margin @0.5V = %.1f mV, paper 5.8 mV", m90*1e3)
	}
	m22 := res.Cell("22nm PTM HP", 0.50).Result.Margin
	if m22 <= m90 {
		t.Error("22nm must need a larger margin than 90nm")
	}
}

// TestFig7Shape: the paper's crossover — duplication competitive only at
// the high-voltage/low-variation corner, margining winning at low Vdd on
// advanced nodes.
func TestFig7Shape(t *testing.T) {
	res := runQuick(t, "fig7").(*Fig7Result)
	byKey := func(node string, vdd float64) *Fig7Point {
		for i := range res.Points {
			p := &res.Points[i]
			if p.Node == node && abs(p.Vdd-vdd) < 1e-6 {
				return p
			}
		}
		return nil
	}
	if p := byKey("22nm PTM HP", 0.50); p.Winner != "margining" {
		t.Errorf("22nm @0.5V winner = %s, want margining", p.Winner)
	}
	if p := byKey("90nm GP", 0.70); p.DupPowerPct > 1 {
		t.Errorf("90nm @0.7V duplication power %v%% should be tiny", p.DupPowerPct)
	}
	// Margining power exceeds duplication power at the easy corner.
	p := byKey("90nm GP", 0.70)
	if p.Winner != "duplication" {
		t.Errorf("90nm @0.7V winner = %s, paper favours duplication at low variation", p.Winner)
	}
}

// TestFig8Table3Shape: combined duplication+margining — more spares
// lower the required voltage; the best combination beats both extremes.
func TestTable3Shape(t *testing.T) {
	res := runQuick(t, "table3").(*Table3Result)
	if len(res.Choices) < 4 {
		t.Fatalf("choices = %d", len(res.Choices))
	}
	for i := 1; i < len(res.Choices); i++ {
		if res.Choices[i].Margin > res.Choices[i-1].Margin {
			t.Error("margin should fall as spares grow")
		}
	}
	pure0 := res.Choices[0]                  // margin only
	pureN := res.Choices[len(res.Choices)-1] // duplication heavy
	if res.Best.PowerPct > pure0.PowerPct || res.Best.PowerPct > pureN.PowerPct {
		t.Error("Best should not exceed the pure strategies")
	}
	if res.Best.Spares == 0 || res.Best.Spares == pureN.Spares {
		t.Logf("note: best is a pure strategy (%+v) — paper finds a small mix", res.Best)
	}
}

func TestFig8Shape(t *testing.T) {
	res := runQuick(t, "fig8").(*Fig8Result)
	// Higher voltage rows are faster; more spares are faster.
	for i := 1; i < len(res.Voltages); i++ {
		if res.P99[i][0] >= res.P99[i-1][0] {
			t.Error("p99 should fall with supply voltage")
		}
	}
	for j := 1; j < len(res.Spares); j++ {
		if res.P99[0][j] >= res.P99[0][j-1] {
			t.Error("p99 should fall with spares")
		}
	}
	// The highest-voltage, most-spares corner meets the target.
	last := res.P99[len(res.Voltages)-1][len(res.Spares)-1]
	if last > res.Target {
		t.Errorf("best corner %v above target %v", last, res.Target)
	}
}

// TestTable4Shape: frequency margining drops grow toward 20 % at 22 nm
// and stay small at 90 nm / high Vdd.
func TestTable4Shape(t *testing.T) {
	res := runQuick(t, "table4").(*Table4Result)
	d90hi := res.Cell("90nm GP", 0.70).DropPct
	d22lo := res.Cell("22nm PTM HP", 0.50).DropPct
	if d90hi > 5 {
		t.Errorf("90nm @0.7V drop %v%% should be small", d90hi)
	}
	if d22lo < 12 {
		t.Errorf("22nm @0.5V drop %v%%, paper ≈20%%", d22lo)
	}
	for _, c := range res.Cells {
		if c.TVaClk < c.TClk {
			t.Errorf("%s @%gV: T_va below T_clk", c.Node, c.Vdd)
		}
	}
}

// TestFig9Shape: energy minimum sub-threshold, ≈2× energy at NTV,
// large speedup from the minimum point to NTV.
func TestFig9Shape(t *testing.T) {
	res := runQuick(t, "fig9").(*Fig9Result)
	if res.EminVdd >= res.Node.Dev.Vth0 {
		t.Errorf("energy minimum at %v V not sub-threshold (Vth %v)", res.EminVdd, res.Node.Dev.Vth0)
	}
	if r := res.EnergyNTV / res.Emin; r < 1 || r > 2.5 {
		t.Errorf("E(NTV)/Emin = %v, paper ≈2", r)
	}
	if res.SpeedupSub < 5 {
		t.Errorf("sub→near speedup ×%v, paper 6–11×", res.SpeedupSub)
	}
	if r := res.EnergyNom / res.EnergyNTV; r < 3 {
		t.Errorf("nominal→NTV energy reduction ×%v, paper ≈10×", r)
	}
}

// TestFig11Shape: diminishing returns of chain length, for every node.
func TestFig11Shape(t *testing.T) {
	res := runQuick(t, "fig11").(*Fig11Result)
	for _, s := range res.Series {
		n := len(s.ThreeSig)
		if s.ThreeSig[0] <= s.ThreeSig[n-1] {
			t.Errorf("%s: single gate (%v) not above longest chain (%v)",
				s.Node.Name, s.ThreeSig[0], s.ThreeSig[n-1])
		}
		// Δ(3σ/μ) from N=1→10 exceeds the Δ from N=20→200: diminishing
		// returns (Appendix C).
		early := s.ThreeSig[0] - s.ThreeSig[3]
		late := s.ThreeSig[4] - s.ThreeSig[7]
		if early <= late {
			t.Errorf("%s: no diminishing returns (early %v, late %v)", s.Node.Name, early, late)
		}
	}
}

// TestFig12Shape: global sparing dominates local everywhere; the XRAM
// bypass demo routes correctly.
func TestFig12Shape(t *testing.T) {
	res := runQuick(t, "fig12").(*Fig12Result)
	for _, c := range res.Coverage {
		if c.Global < c.Local-1e-12 {
			t.Errorf("p=%v: global %v below local %v", c.FaultProb, c.Global, c.Local)
		}
	}
	for _, b := range res.Bursts {
		if b.BurstLen >= 2 && b.BurstLen <= 32 {
			if b.Global != 1 {
				t.Errorf("global should absorb burst %d", b.BurstLen)
			}
			if b.Local > 0.5 {
				t.Errorf("local coverage %v for burst %d should collapse", b.Local, b.BurstLen)
			}
		}
	}
	if !res.BypassOK {
		t.Errorf("XRAM bypass demo failed:\n%s", res.BypassLog)
	}
}

// TestKSShape: the Kogge-Stone adder variation sits near the 50-FO4
// chain value (§3.1, [7]), well below single-gate variation.
func TestKSShape(t *testing.T) {
	res := runQuick(t, "ks").(*KSResult)
	var row05 *KSRow
	for i := range res.Rows {
		if res.Rows[i].Vdd == 0.5 {
			row05 = &res.Rows[i]
		}
	}
	if row05 == nil {
		t.Fatal("missing 0.5V row")
	}
	if r := row05.KS64 / row05.Chain; r < 0.4 || r > 2.0 {
		t.Errorf("KS/chain variation ratio %v, paper ≈0.9 (8.4%%/9.43%%)", r)
	}
}

// TestSynctiumShape: flush recovery collapses throughput as error rates
// rise; decoupling absorbs errors (the §1 motivation).
func TestSynctiumShape(t *testing.T) {
	res := runQuick(t, "synctium").(*ErrorPenaltyResult)
	last := res.Rows[len(res.Rows)-1] // p = 0.1
	if last.FlushRel < 2 {
		t.Errorf("flush at p=0.1 only ×%v slowdown", last.FlushRel)
	}
	if !(last.FlushRel > last.StallRel && last.StallRel > last.DecoupledRel) {
		t.Errorf("policy ordering violated: %+v", last)
	}
	first := res.Rows[0] // p = 1e-5
	if first.FlushRel > 1.05 {
		t.Errorf("rare errors should be nearly free: flush ×%v", first.FlushRel)
	}
	// Monotone degradation with p for flush.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].FlushRel < res.Rows[i-1].FlushRel-0.01 {
			t.Error("flush penalty should grow with error probability")
		}
	}
}

// TestRendersMentionKeyNumbers sanity-checks that rendered artifacts
// carry their defining content.
func TestRendersMentionKeyNumbers(t *testing.T) {
	res := runQuick(t, "table2")
	if !strings.Contains(res.Render(), "mV") {
		t.Error("table2 render lacks margins")
	}
}

// TestAblationShape: the extension finding — spares gain far less under
// shared-die correlation than under the paper's iid assumption.
func TestAblationShape(t *testing.T) {
	res := runQuick(t, "ablation").(*AblationResult)
	for _, row := range res.Rows {
		if row.CorrGainPct >= row.IIDGainPct {
			t.Errorf("@%gV: correlated gain %v%% not below iid gain %v%%",
				row.Vdd, row.CorrGainPct, row.IIDGainPct)
		}
		if row.SpatialGainPct <= row.CorrGainPct || row.SpatialGainPct >= row.IIDGainPct*1.2 {
			t.Errorf("@%gV: spatial gain %v%% should sit between shared-die %v%% and iid %v%%",
				row.Vdd, row.SpatialGainPct, row.CorrGainPct, row.IIDGainPct)
		}
	}
}

// TestAblationDrawsEachChipOnce: an ablation run draws one sample per
// datapath and supply — at 64 spares for the iid paths and the shared
// die, whose 16-spare gain and spare search both read it, and at 16 for
// the spatial field — plus the two nominal baselines. A progress
// reporter on its ctx sees 11 × SearchSamples chip draws, where drawing
// the gains and the searches separately made 17×.
func TestAblationDrawsEachChipOnce(t *testing.T) {
	const n = 40
	p := telemetry.NewProgress()
	cfg := Config{Seed: 5, CircuitSamples: 10, ChipSamples: 10, SearchSamples: n}
	if _, err := RunCtx(telemetry.WithProgress(context.Background(), p), "ablation", cfg); err != nil {
		t.Fatal(err)
	}
	if s := p.Snapshot(); s.Done != 11*n || s.Total != 11*n {
		t.Errorf("ablation drew %d of %d chips, want %d", s.Done, s.Total, 11*n)
	}
}

// TestAppShape: the kernel-level FV-vs-NTV pricing — uniform slowdown
// from the clock ratio, several-fold energy savings, verified outputs.
func TestAppShape(t *testing.T) {
	res := runQuick(t, "app").(*AppResult)
	if len(res.Rows) < 4 {
		t.Fatalf("kernels = %d", len(res.Rows))
	}
	if res.ClockNTV <= res.ClockFV {
		t.Error("NTV clock must be slower than FV clock")
	}
	for _, row := range res.Rows {
		slow := row.TimeNTV / row.TimeFV
		want := res.ClockNTV / res.ClockFV
		if rel(slow, want) > 1e-9 {
			t.Errorf("%s: slowdown %v should equal clock ratio %v", row.Kernel, slow, want)
		}
		if saving := row.EnergyFV / row.EnergyNTV; saving < 2 {
			t.Errorf("%s: NTV energy saving ×%v too small", row.Kernel, saving)
		}
	}
}

// TestCornersShape: corner signoff over-margins grow toward threshold
// for the GP nodes and the corner covers the statistical chip at 90 nm.
func TestCornersShape(t *testing.T) {
	res := runQuick(t, "corners").(*CornersResult)
	byKey := func(node string, vdd float64) *CornersCell {
		for i := range res.Cells {
			c := &res.Cells[i]
			if c.Node == node && abs(c.Vdd-vdd) < 1e-6 {
				return c
			}
		}
		return nil
	}
	lo := byKey("90nm GP", 0.50)
	hi := byKey("90nm GP", 1.00)
	if lo == nil || hi == nil {
		t.Fatal("missing 90nm cells")
	}
	if lo.OverMarginPct <= hi.OverMarginPct {
		t.Errorf("90nm over-margin should grow toward threshold: %v vs %v",
			lo.OverMarginPct, hi.OverMarginPct)
	}
	if lo.OverMarginPct <= 0 || hi.OverMarginPct <= 0 {
		t.Errorf("90nm corner flow should over-cover: %v, %v", lo.OverMarginPct, hi.OverMarginPct)
	}
}

// TestITDShape: the temperature extension — ITD regime near threshold,
// normal regime at nominal voltage, inversion point in between.
func TestITDShape(t *testing.T) {
	res := runQuick(t, "itd").(*ITDResult)
	for _, s := range res.Series {
		if s.SensPerK[0] >= 0 {
			t.Errorf("%s: lowest Vdd sensitivity %v should be negative (ITD)", s.Node.Name, s.SensPerK[0])
		}
		last := s.SensPerK[len(s.SensPerK)-1]
		if last <= 0 {
			t.Errorf("%s: nominal-voltage sensitivity %v should be positive", s.Node.Name, last)
		}
		if s.Inversion <= s.Node.Dev.Vth0 || s.Inversion > 1.2 {
			t.Errorf("%s: inversion point %v implausible", s.Node.Name, s.Inversion)
		}
	}
}

// TestYieldShape: the yield extension — spares shorten the shippable
// clock at every yield target, most at the tightest target.
func TestYieldShape(t *testing.T) {
	res := runQuick(t, "yield").(*YieldResult)
	for i := range res.Targets {
		if res.ClockWith[i] > res.ClockBase[i] {
			t.Errorf("target %v: mitigated clock slower", res.Targets[i])
		}
	}
	if res.PaperP99With >= res.PaperP99Base {
		t.Error("spares must shorten the 99%-yield clock")
	}
	for _, p := range res.Points {
		if p.YieldWith < p.Yield-0.02 {
			t.Errorf("mitigated yield below base at %v", p.TClk)
		}
	}
}

// TestSRAMYieldShape: the memory extension's two findings — write yield
// collapses before read yield everywhere, and at iso-overhead the
// lanes-only repair split cannot match spending on spare rows at the
// memory-limited stress point.
func TestSRAMYieldShape(t *testing.T) {
	res := runQuick(t, "sramyield").(*SRAMYieldResult)
	if want := len(tech.Nodes()) * len(sramVdds); len(res.Rows) != want {
		t.Fatalf("crossover rows = %d, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		for name, y := range map[string]float64{
			"read": row.ReadMC, "write": row.WriteMC,
			"analytic": row.ReadAnalytic, "logic": row.LogicMC,
		} {
			if y < 0 || y > 100 {
				t.Errorf("%s @%gV: %s yield %v%% out of range", row.Node, row.Vdd, name, y)
			}
		}
		// The write-contention tail is strictly fatter than the series
		// read path; 1 pp of slack absorbs MC noise at the Quick budget.
		if row.WriteMC > row.ReadMC+1 {
			t.Errorf("%s @%gV: write yield %v%% above read %v%%",
				row.Node, row.Vdd, row.WriteMC, row.ReadMC)
		}
		// Analytic and MC share one estimand; 4 pp covers the 99% CI of
		// a 1200-chip binomial estimate with margin.
		if diff := math.Abs(row.ReadAnalytic - row.ReadMC); diff > 4 {
			t.Errorf("%s @%gV: analytic read %v%% vs MC %v%% (Δ %.2f pp)",
				row.Node, row.Vdd, row.ReadAnalytic, row.ReadMC, diff)
		}
		if got := row.ReadMC - row.LogicMC; math.Abs(got-row.DeltaPP) > 1e-12 {
			t.Errorf("%s @%gV: DeltaPP %v, want read−logic %v", row.Node, row.Vdd, row.DeltaPP, got)
		}
	}
	if len(res.Splits) != 3 {
		t.Fatalf("spare splits = %d, want 3", len(res.Splits))
	}
	base := res.Splits[0].OverheadPct
	var rowsOnly, lanesOnly float64
	for _, s := range res.Splits {
		if math.Abs(s.OverheadPct-base) > 0.05 {
			t.Errorf("%s: overhead %v%% not iso with %v%%", s.Policy, s.OverheadPct, base)
		}
		switch s.Policy {
		case "rows only":
			rowsOnly = s.Combined
		case "lanes only":
			lanesOnly = s.Combined
		}
	}
	if lanesOnly >= rowsOnly {
		t.Errorf("lanes-only combined %v%% should trail rows-only %v%% at the memory-limited stress point",
			lanesOnly, rowsOnly)
	}
}

// TestCSVExports checks header/row consistency for every CSVer result.
// It uses a minimal sample budget: only the CSV structure is under test.
func TestCSVExports(t *testing.T) {
	tiny := Config{Seed: 1, CircuitSamples: 50, ChipSamples: 100, SearchSamples: 100}
	for _, id := range []string{"fig2", "fig4", "fig9", "fig11", "sramyield", "table1", "table2", "table4"} {
		res, err := RunCtx(context.Background(), id, tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		c, ok := res.(CSVer)
		if !ok {
			t.Errorf("%s: expected CSV support", id)
			continue
		}
		rows := c.CSV()
		if len(rows) < 2 {
			t.Errorf("%s: CSV has no data rows", id)
			continue
		}
		width := len(rows[0])
		if width < 2 {
			t.Errorf("%s: CSV header too narrow", id)
		}
		for i, row := range rows {
			if len(row) != width {
				t.Errorf("%s: row %d width %d, want %d", id, i, len(row), width)
			}
		}
	}
}
