package experiments

import (
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/simd"
)

// TestViewsRestateSources pins every artifact that prints a number
// another artifact computes (a view) to that artifact (its source) at
// Quick(): bit for bit where both run the same formula, within 1e-12
// relative where the value round-trips through FO4 units.
func TestViewsRestateSources(t *testing.T) {
	results := map[string]Result{}
	get := func(t *testing.T, id string) Result {
		if _, ok := results[id]; !ok {
			results[id] = runQuick(t, id)
		}
		return results[id]
	}
	sameBits := func(t *testing.T, what string, view, source float64) {
		t.Helper()
		if math.Float64bits(view) != math.Float64bits(source) {
			t.Errorf("%s: view %v, source %v", what, view, source)
		}
	}
	near := func(t *testing.T, what string, view, source float64) {
		t.Helper()
		if math.Abs(view-source) > 1e-12*math.Abs(source) {
			t.Errorf("%s: view %v, source %v", what, view, source)
		}
	}
	// fig2At is Figure 2's 3σ/μ on node index ni at vdd.
	fig2At := func(t *testing.T, ni int, vdd float64) float64 {
		t.Helper()
		s := get(t, "fig2").(*Fig2Result).Series[ni]
		for i, v := range s.Vdd {
			if math.Abs(v-vdd) < 1e-6 {
				return s.ThreeSig[i]
			}
		}
		t.Fatalf("%g V is not on Figure 2's %s grid", vdd, s.Node.Name)
		return 0
	}
	fig4Series := func(t *testing.T, node string) Fig4Series {
		t.Helper()
		for _, s := range get(t, "fig4").(*Fig4Result).Series {
			if s.Node.Name == node {
				return s
			}
		}
		t.Fatalf("Figure 4 has no %s series", node)
		return Fig4Series{}
	}

	cases := []struct {
		name  string
		check func(t *testing.T)
	}{
		{"fig7 restates table1 and table2", func(t *testing.T) {
			res := get(t, "fig7").(*Fig7Result)
			t1 := get(t, "table1").(*Table1Result)
			t2 := get(t, "table2").(*Table2Result)
			if len(res.Points) != len(t1.Cells) {
				t.Fatalf("%d points, Table 1 has %d cells", len(res.Points), len(t1.Cells))
			}
			for _, p := range res.Points {
				sr, vr := t1.Cell(p.Node, p.Vdd).Search, t2.Cell(p.Node, p.Vdd).Result
				if p.DupSpares != sr.Spares || p.DupFound != sr.Found {
					t.Errorf("%s @%.2fV: %d spares (found %v), Table 1 %d (found %v)",
						p.Node, p.Vdd, p.DupSpares, p.DupFound, sr.Spares, sr.Found)
				}
				sameBits(t, p.Node+" margin mV", p.MarginMV, vr.Margin*1e3)
				sameBits(t, p.Node+" margin power", p.MarginPowerPct, vr.PowerPct)
			}
		}},
		{"table4 restates fig4", func(t *testing.T) {
			for _, c := range get(t, "table4").(*Table4Result).Cells {
				s := fig4Series(t, c.Node)
				sameBits(t, c.Node+" drop", c.DropPct, s.Drop(c.Vdd))
				sameBits(t, c.Node+" T_clk", c.TClk, s.Baseline*simd.New(s.Node).FO4(c.Vdd))
				near(t, c.Node+" T_va-clk/T_clk", c.TVaClk/c.TClk, 1+s.Drop(c.Vdd)/100)
			}
		}},
		{"corners restates fig4", func(t *testing.T) {
			for _, c := range get(t, "corners").(*CornersResult).Cells {
				s := fig4Series(t, c.Node)
				want := s.Baseline
				if c.Vdd != s.Node.VddNominal {
					want *= 1 + s.Drop(c.Vdd)/100
				}
				near(t, c.Node+" p99 FO4", c.StatisticalP99/simd.New(s.Node).FO4(c.Vdd), want)
			}
		}},
		{"fig3 restates fig4 and fig5", func(t *testing.T) {
			curves := get(t, "fig3").(*Fig3Result).Curves[2:] // the 128-wide curves, 1 V first
			s := fig4Series(t, "90nm GP")
			base := curves[0].Summary.P99
			sameBits(t, "1 V p99 vs Figure 4", base, s.Baseline)
			sameBits(t, "1 V p99 vs Figure 5", base, get(t, "fig5").(*Fig5Result).BaselineP99)
			for _, c := range curves[1:] {
				sameBits(t, c.Label+" drop", 100*(c.Summary.P99/base-1), s.Drop(c.Vdd))
			}
		}},
		{"fig6 restates fig8", func(t *testing.T) {
			f6 := get(t, "fig6").(*Fig6Result)
			f8 := get(t, "fig8").(*Fig8Result)
			sameBits(t, "target", f6.Target, f8.Target)
			for i, v := range f6.Voltages {
				if v != f8.Voltages[i] {
					t.Fatalf("voltage %d: %v, Figure 8 %v", i, v, f8.Voltages[i])
				}
				near(t, "0-spare p99", f6.VoltP99[i], f8.P99[i][0])
			}
			for j, a := range f6.Spares {
				col := -1
				for k, b := range f8.Spares {
					if a == b {
						col = k
					}
				}
				if col < 0 {
					t.Fatalf("Figure 8 has no %d-spare column", a)
				}
				near(t, "600 mV p99", f6.SpareP99[j], f8.P99[0][col])
			}
			// Quick() searches over as many chips as Figure 8 draws, so
			// the searched margin splits Figure 8's 0-spare column.
			for i, v := range f8.Voltages {
				meets := f8.P99[i][0] <= f8.Target
				if reached := v >= 0.600+f6.Margin.Margin-1e-9; meets != reached {
					t.Errorf("%.0f mV meets the target: %v, but the searched margin is %.1f mV",
						v*1e3, meets, f6.Margin.Margin*1e3)
				}
			}
		}},
		{"table3 restates table2", func(t *testing.T) {
			c := get(t, "table2").(*Table2Result).Cell("45nm GP", 0.60).Result
			ch := get(t, "table3").(*Table3Result).Choices[0]
			if ch.Spares != 0 {
				t.Fatalf("first choice has %d spares, want 0", ch.Spares)
			}
			sameBits(t, "margin", ch.Margin, c.Margin)
			sameBits(t, "power", ch.PowerPct, c.PowerPct)
		}},
		{"app restates table2", func(t *testing.T) {
			c := get(t, "table2").(*Table2Result).Cell("90nm GP", 0.55).Result
			res := get(t, "app").(*AppResult)
			sameBits(t, "margin mV", res.MarginMV, c.Margin*1e3)
			sameBits(t, "NTV clock", res.ClockNTV, c.Target)
		}},
		{"fig1 restates fig2", func(t *testing.T) {
			for _, row := range get(t, "fig1").(*Fig1Result).Rows {
				sameBits(t, "chain 3σ/μ", row.Chain.ThreeSigmaOverMu(), fig2At(t, 0, row.Vdd))
			}
		}},
		{"fig11 restates fig2", func(t *testing.T) {
			res := get(t, "fig11").(*Fig11Result)
			for ni, s := range res.Series {
				for i, n := range s.Lengths {
					if n == 50 {
						sameBits(t, s.Node.Name+" N=50", s.ThreeSig[i], fig2At(t, ni, res.Vdd))
					}
				}
			}
		}},
		{"ks restates fig2", func(t *testing.T) {
			for _, row := range get(t, "ks").(*KSResult).Rows {
				sameBits(t, "chain 3σ/μ", row.Chain, fig2At(t, 0, row.Vdd))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.check)
	}
}
