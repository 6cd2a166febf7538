package experiments

import (
	"fmt"
	"strconv"
)

// CSVer is implemented by results that can emit machine-readable rows
// (header first) for replotting the figure outside the CLI.
type CSVer interface {
	CSV() [][]string
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// CSV implements CSVer: columns Vdd, then one 3σ/μ column per node.
func (r *Fig2Result) CSV() [][]string {
	head := []string{"vdd_v"}
	for _, s := range r.Series {
		head = append(head, s.Node.Name+"_3sigma_pct")
	}
	rows := [][]string{head}
	for i, v := range r.Series[0].Vdd {
		row := []string{f(v)}
		for _, s := range r.Series {
			if i < len(s.ThreeSig) {
				row = append(row, f(s.ThreeSig[i]))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// CSV implements CSVer: columns Vdd, then one perf-drop column per node.
func (r *Fig4Result) CSV() [][]string {
	head := []string{"vdd_v"}
	for _, s := range r.Series {
		head = append(head, s.Node.Name+"_drop_pct")
	}
	rows := [][]string{head}
	for i, v := range r.Series[0].Vdd {
		row := []string{f(v)}
		for _, s := range r.Series {
			if i < len(s.DropPct) {
				row = append(row, f(s.DropPct[i]))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// CSV implements CSVer for the spare-count table.
func (r *Table1Result) CSV() [][]string {
	rows := [][]string{{"node", "vdd_v", "spares", "found", "area_pct", "power_pct"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Node, f(c.Vdd), strconv.Itoa(c.Search.Spares),
			fmt.Sprint(c.Search.Found), f(c.AreaPct), f(c.PowerPct),
		})
	}
	return rows
}

// CSV implements CSVer for the voltage-margin table.
func (r *Table2Result) CSV() [][]string {
	rows := [][]string{{"node", "vdd_v", "margin_mv", "power_pct"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Node, f(c.Vdd), f(c.Result.Margin * 1e3), f(c.Result.PowerPct),
		})
	}
	return rows
}

// CSV implements CSVer for the frequency-margining table.
func (r *Table4Result) CSV() [][]string {
	rows := [][]string{{"node", "vdd_v", "tclk_ns", "tva_clk_ns", "drop_pct"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Node, f(c.Vdd), f(c.TClk * 1e9), f(c.TVaClk * 1e9), f(c.DropPct),
		})
	}
	return rows
}

// CSV implements CSVer for the energy sweep.
func (r *Fig9Result) CSV() [][]string {
	rows := [][]string{{"vdd_v", "e_dyn", "e_leak", "e_total", "delay_s"}}
	for _, p := range r.Points {
		rows = append(rows, []string{f(p.Vdd), f(p.Dynamic), f(p.Leakage), f(p.Total()), f(p.Delay)})
	}
	return rows
}

// CSV implements CSVer for the chain-length sweep.
func (r *Fig11Result) CSV() [][]string {
	head := []string{"chain_length"}
	for _, s := range r.Series {
		head = append(head, s.Node.Name+"_3sigma_pct")
	}
	rows := [][]string{head}
	for i, n := range r.Series[0].Lengths {
		row := []string{strconv.Itoa(n)}
		for _, s := range r.Series {
			row = append(row, f(s.ThreeSig[i]))
		}
		rows = append(rows, row)
	}
	return rows
}
