package sweep

import (
	"testing"

	"github.com/ntvsim/ntvsim/internal/importance"
)

// renderCases are the four table layouts of Result.Render — plain, with
// importance-weight columns, with the mode column, and both — plus a
// unit-less metric table and an experiment sweep's per-point renders,
// each with the bytes it renders to.
func renderCases() []struct {
	name, want string
	res        Result
} {
	is := func(ess, frac, maxw float64, degenerate bool) *importance.Diagnostics {
		return &importance.Diagnostics{N: 1000, ESS: ess, ESSFrac: frac, MaxW: maxw, Degenerate: degenerate}
	}
	pt := func(i int, node string, vdd float64, samples int) Point {
		return Point{Index: i, Node: node, Vdd: vdd, Samples: samples, Seed: uint64(100 + i)}
	}
	return []struct {
		name, want string
		res        Result
	}{
		{"plain",
			"Sweep of chain3sigma over 2 grid points (seed 7)\n" +
				"#         node      Vdd  samples  value (%)\n" +
				"---------------------------------------------\n" +
				"0      90nm GP  0.500 V      400    9.48123\n" +
				"1  22nm PTM HP  0.550 V      400       31.5\n",
			Result{Kernel: "chain3sigma", Unit: "%", Seed: 7, Points: []PointResult{
				{Point: pt(0, "90nm GP", 0.5, 400), Value: 9.481234567},
				{Point: pt(1, "22nm PTM HP", 0.55, 400), Value: 31.5},
			}}},
		{"is",
			"Sweep of tailyield over 3 grid points (seed 8)\n" +
				"#     node      Vdd  samples  value (ppm)  ESS               ESS/N  max w\n" +
				"---------------------------------------------------------------------------\n" +
				"0  90nm GP  0.500 V     1000        12.25  812               0.812    3.5\n" +
				"1  90nm GP  0.600 V     1000     0.000123   10  0.010 (degenerate)    412\n" +
				"2  45nm GP  0.600 V     1000            7                                \n",
			Result{Kernel: "tailyield", Unit: "ppm", Seed: 8, Points: []PointResult{
				{Point: pt(0, "90nm GP", 0.5, 1000), Value: 12.25, IS: is(812.4, 0.8124, 3.5, false)},
				{Point: pt(1, "90nm GP", 0.6, 1000), Value: 0.000123, IS: is(9.6, 0.0096, 412.25, true)},
				{Point: pt(2, "45nm GP", 0.6, 1000), Value: 7},
			}}},
		{"mode",
			"Sweep of p99chipclock over 2 grid points (seed 9)\n" +
				"#         node      Vdd  samples  value (FO4)  mode\n" +
				"-----------------------------------------------------\n" +
				"0  32nm PTM HP  0.450 V     2000      71.0625  ssta\n" +
				"1  32nm PTM HP  0.500 V     2000         64.5    mc\n",
			Result{Kernel: "p99chipclock", Unit: "FO4", Seed: 9, Points: []PointResult{
				{Point: pt(0, "32nm PTM HP", 0.45, 2000), Value: 71.0625, Mode: ModeSSTA},
				{Point: pt(1, "32nm PTM HP", 0.5, 2000), Value: 64.5, Mode: ModeMC},
			}}},
		{"is and mode",
			"Sweep of tailyield over 2 grid points (seed 10)\n" +
				"#         node      Vdd  samples  value (ppm)  ESS  ESS/N  max w  mode\n" +
				"------------------------------------------------------------------------\n" +
				"0  22nm PTM HP  0.500 V      500      1.5e-07  250  0.500      2    mc\n" +
				"1  22nm PTM HP  0.700 V      500            3                     ssta\n",
			Result{Kernel: "tailyield", Unit: "ppm", Seed: 10, Points: []PointResult{
				{Point: pt(0, "22nm PTM HP", 0.5, 500), Value: 1.5e-7, IS: is(250, 0.5, 2, false), Mode: ModeMC},
				{Point: pt(1, "22nm PTM HP", 0.7, 500), Value: 3, Mode: ModeSSTA},
			}}},
		{"no unit",
			"Sweep of custom over 1 grid points (seed 11)\n" +
				"#     node      Vdd  samples  value\n" +
				"-------------------------------------\n" +
				"0  45nm GP  0.650 V       50   -2.5\n",
			Result{Kernel: "custom", Seed: 11, Points: []PointResult{
				{Point: pt(0, "45nm GP", 0.65, 50), Value: -2.5},
			}}},
		{"experiment",
			"Sweep of fig2 over 2 grid points (seed 12)\n" +
				"--- point 0: 200 samples ---\n" +
				"Figure 2 at 200 samples\n" +
				"\n" +
				"--- point 1: 400 samples ---\n" +
				"Figure 2 at 400 samples\n" +
				"\n",
			Result{Kernel: "fig2", Seed: 12, Points: []PointResult{
				{Point: Point{Index: 0, Samples: 200, Seed: 100}, Render: "Figure 2 at 200 samples\n"},
				{Point: Point{Index: 1, Samples: 400, Seed: 101}, Render: "Figure 2 at 400 samples\n"},
			}}},
	}
}

// TestRenderLayouts pins Result.Render byte for byte on every layout.
func TestRenderLayouts(t *testing.T) {
	for _, c := range renderCases() {
		if got := c.res.Render(); got != c.want {
			t.Errorf("%s: Render =\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}
