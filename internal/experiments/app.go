package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/margin"
	"github.com/ntvsim/ntvsim/internal/power"
	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/soda"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func init() {
	register("app", Architecture, 6000,
		"full-voltage vs near-threshold kernel comparison across the whole stack (extension)", runApp)
}

// AppRow is one kernel's full-voltage vs near-threshold comparison.
type AppRow struct {
	Kernel    string
	Cycles    int // SIMD cycles (identical at both voltages)
	VectorOps int
	TimeFV    float64 // seconds at nominal voltage
	TimeNTV   float64 // seconds at margined NTV
	EnergyFV  float64 // normalized units
	EnergyNTV float64
}

// AppResult is an extension tying the whole stack together: it runs
// real signal kernels on the Diet SODA PE simulator and prices them at
// full voltage versus margined near-threshold voltage. The clock at
// each voltage is the variation-aware 99 % chip delay (margined per
// Table 2, so both operating points meet the same variation target);
// energy combines the Figure-9 per-op model with the kernels' measured
// vector-operation counts. The outcome is the paper's motivation made
// concrete: several-fold energy savings for a several-fold slowdown —
// recoverable with SIMD width — on the camera workloads themselves.
type AppResult struct {
	Node     tech.Node
	VddNTV   float64
	MarginMV float64
	ClockFV  float64 // seconds
	ClockNTV float64
	Rows     []AppRow
}

// ID implements Result.
func (r *AppResult) ID() string { return "app" }

// Render implements Result.
func (r *AppResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Kernel energy/throughput, %s: %.1f V vs %.0f mV + %.1f mV margin\n",
		r.Node.Name, r.Node.VddNominal, r.VddNTV*1e3, r.MarginMV)
	fmt.Fprintf(&b, "variation-aware clocks: %.2f ns (FV) / %.2f ns (NTV)\n",
		r.ClockFV*1e9, r.ClockNTV*1e9)
	t := report.NewTable("", "kernel", "cycles", "vec ops", "time FV", "time NTV", "slowdown", "energy saving")
	for _, row := range r.Rows {
		t.AddRowf(row.Kernel,
			fmt.Sprintf("%d", row.Cycles),
			fmt.Sprintf("%d", row.VectorOps),
			fmt.Sprintf("%.2f µs", row.TimeFV*1e6),
			fmt.Sprintf("%.2f µs", row.TimeNTV*1e6),
			fmt.Sprintf("×%.1f", row.TimeNTV/row.TimeFV),
			fmt.Sprintf("×%.1f", row.EnergyFV/row.EnergyNTV))
	}
	b.WriteString(t.String())
	b.WriteString("the slowdown is uniform (clock-rate bound) and recovered by SIMD width;\n" +
		"the energy saving is the near-threshold payoff the paper's techniques protect.\n")
	return b.String()
}

func runApp(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N90
	const vddNTV = 0.55
	dp := simd.New(node)

	// Variation-aware clocks: the FV baseline 99 % chip delay, and the
	// NTV clock after the Table 2 margin restores the same FO4 target.
	// Both draw with Table 2's 90 nm (node 0) seeds, so the margin is
	// its 0.55 V cell.
	base, err := dp.P99ChipDelayFO4Ctx(ctx, table2Seed(cfg, 0, 0), cfg.SearchSamples, node.VddNominal, 0)
	if err != nil {
		return nil, err
	}
	target := margin.TargetDelay(dp, vddNTV, base)
	vr, err := margin.VoltageMarginCtx(ctx, dp, table2Seed(cfg, 0, vddNTV), cfg.SearchSamples, vddNTV, target, 0.1e-3, 0)
	if err != nil {
		return nil, err
	}

	res := &AppResult{
		Node: node, VddNTV: vddNTV, MarginMV: vr.Margin * 1e3,
		ClockFV:  base * dp.FO4(node.VddNominal),
		ClockNTV: target,
	}

	// Energy per vector operation at each voltage (50-gate op depth,
	// Figure 9 model), at the margined NTV supply.
	eFV := power.EnergyPerOp(node.Dev, node.VddNominal, tech.ChainLength, 1.0).Total()
	eNTV := power.EnergyPerOp(node.Dev, vddNTV+vr.Margin, tech.ChainLength, 1.0).Total()

	r := rng.New(cfg.Seed)
	vec := func(n int) []uint16 {
		out := make([]uint16, n)
		for i := range out {
			out[i] = uint16(r.IntN(256))
		}
		return out
	}
	sig := make([]int16, soda.Lanes)
	for i := range sig {
		sig[i] = int16(r.IntN(7) - 3)
	}
	px := make([]int16, soda.Lanes)
	for i := range px {
		px[i] = int16(r.IntN(201) - 100)
	}
	kernels := []soda.Kernel{
		soda.FIRKernel(vec(soda.Lanes), []int16{1, 2, 4, 8, 8, 4, 2, 1}),
		soda.RGBToYCbCrKernel(vec(soda.Lanes), vec(soda.Lanes), vec(soda.Lanes)),
		soda.DCT8Kernel(px),
		soda.FFTKernel(sig, make([]int16, soda.Lanes)),
		soda.DotProductKernel(vec(16*soda.Lanes), vec(16*soda.Lanes)),
	}
	for _, k := range kernels {
		pe := soda.NewPE()
		if err := soda.RunKernel(pe, k); err != nil {
			return nil, err
		}
		s := pe.Stats
		res.Rows = append(res.Rows, AppRow{
			Kernel:    k.Name,
			Cycles:    s.Cycles,
			VectorOps: s.VectorOps,
			TimeFV:    float64(s.Cycles) * res.ClockFV,
			TimeNTV:   float64(s.Cycles) * res.ClockNTV,
			EnergyFV:  float64(s.VectorOps) * eFV,
			EnergyNTV: float64(s.VectorOps) * eNTV,
		})
	}
	return res, nil
}
