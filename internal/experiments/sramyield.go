package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/soda"
	"github.com/ntvsim/ntvsim/internal/sram"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func init() {
	register("sramyield", Architecture, 10000,
		"memory-vs-logic yield crossover across nodes × Vdd, and spare rows vs spare lanes at iso-overhead (extension)", runSRAMYield)
}

// sramVdds is the supply grid of the crossover table, matching the
// sweep engine's default Vdd axis.
var sramVdds = []float64{0.50, 0.55, 0.60}

// SRAMYieldRow is one (node, Vdd) point of the crossover table.
type SRAMYieldRow struct {
	Node         string
	Vdd          float64
	ReadMC       float64 // MC memory read yield, %
	WriteMC      float64 // MC memory write yield, %
	ReadAnalytic float64 // analytic memory read yield, %
	LogicMC      float64 // MC logic-path yield at the shared margin rule, %
	DeltaPP      float64 // ReadMC − LogicMC, percentage points
}

// SpareSplitRow is one iso-overhead repair split: spare memory rows
// versus spare SIMD lanes spending the same silicon.
type SpareSplitRow struct {
	Policy      string
	SpareRows   int     // per SIMD memory bank
	SpareLanes  int     // datapath spare FUs
	OverheadPct float64 // chip-area overhead, % (1:1 memory:logic split)
	MemYield    float64 // MC memory read yield with SpareRows, %
	LogicYield  float64 // MC logic yield with SpareLanes, %
	Combined    float64 // product, % (independence approximation)
}

// SRAMYieldResult extends the paper beyond its logic-only scope: the
// SODA chip it studies is mostly memory, and the crossover table shows
// which side fails first as technology scales and Vdd drops. The
// spare-split table then asks the paper's §4.1 question on the new
// axis: given a fixed repair-area budget, are spare rows or spare
// lanes the better buy?
type SRAMYieldResult struct {
	Samples    int
	Rows       []SRAMYieldRow
	StressNode string
	StressVdd  float64
	Splits     []SpareSplitRow
}

// ID implements Result.
func (r *SRAMYieldResult) ID() string { return "sramyield" }

// Render implements Result.
func (r *SRAMYieldResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SRAM vs logic yield (%d chips/point; read margin %.1f×, write %.1f×, logic %.1f×; %d spare rows/bank)\n",
		r.Samples, sram.DefaultReadMargin, sram.DefaultWriteMargin, sram.LogicMarginFO4, sram.DefaultSpareRowsPerBank)
	t := report.NewTable("", "node", "Vdd", "mem read", "mem write", "read (analytic)", "logic", "mem−logic")
	for _, row := range r.Rows {
		t.AddRowf(row.Node,
			fmt.Sprintf("%.2f V", row.Vdd),
			fmt.Sprintf("%.2f%%", row.ReadMC),
			fmt.Sprintf("%.2f%%", row.WriteMC),
			fmt.Sprintf("%.2f%%", row.ReadAnalytic),
			fmt.Sprintf("%.2f%%", row.LogicMC),
			fmt.Sprintf("%+.2f pp", row.DeltaPP))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nIso-overhead repair split at %s, %.2f V (combined = mem × logic, independent-model approximation):\n",
		r.StressNode, r.StressVdd)
	s := report.NewTable("", "policy", "spare rows/bank", "spare lanes", "overhead", "mem yield", "logic yield", "combined")
	for _, row := range r.Splits {
		s.AddRowf(row.Policy,
			fmt.Sprintf("%d", row.SpareRows),
			fmt.Sprintf("%d", row.SpareLanes),
			fmt.Sprintf("%.2f%%", row.OverheadPct),
			fmt.Sprintf("%.2f%%", row.MemYield),
			fmt.Sprintf("%.2f%%", row.LogicYield),
			fmt.Sprintf("%.2f%%", row.Combined))
	}
	b.WriteString(s.String())
	return b.String()
}

// CSV implements CSVer. The two tables share one file, discriminated by
// the section column.
func (r *SRAMYieldResult) CSV() [][]string {
	rows := [][]string{{
		"section", "node", "vdd", "read_mc_pct", "write_mc_pct", "read_analytic_pct",
		"logic_mc_pct", "delta_pp", "policy", "spare_rows", "spare_lanes", "overhead_pct",
		"mem_pct", "logic_pct", "combined_pct",
	}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			"crossover", row.Node, f(row.Vdd), f(row.ReadMC), f(row.WriteMC),
			f(row.ReadAnalytic), f(row.LogicMC), f(row.DeltaPP),
			"", "", "", "", "", "", "",
		})
	}
	for _, row := range r.Splits {
		rows = append(rows, []string{
			"sparesplit", r.StressNode, f(r.StressVdd), "", "", "", "", "",
			row.Policy, fmt.Sprintf("%d", row.SpareRows), fmt.Sprintf("%d", row.SpareLanes),
			f(row.OverheadPct), f(row.MemYield), f(row.LogicYield), f(row.Combined),
		})
	}
	return rows
}

// spareSplits are the iso-overhead comparison points: ~3.1% of chip
// area spent entirely on rows, entirely on lanes, or split. With a 1:1
// memory:logic area assumption, one spare lane costs 1/(2·Lanes) of
// the chip and one spare row per bank costs Banks·Cols bits out of
// 2×MapCells (the map plus its logic half).
var spareSplits = []struct {
	name       string
	rows, aExt int
}{
	{"rows only", 26, 0},
	{"split", 13, 4},
	{"lanes only", 0, 8},
}

// logicYieldMC estimates the fraction of chips whose slowest path meets
// the logic budget with the given spare-lane count.
func logicYieldMC(ctx context.Context, dp *simd.Datapath, seed uint64, n int, vdd float64, spares int) (float64, error) {
	budget := sram.LogicMarginFO4 * float64(tech.ChainLength)
	fo4s, err := dp.ChipDelaysFO4Ctx(ctx, seed, n, vdd, spares)
	if err != nil {
		return 0, err
	}
	pass := 0
	for _, d := range fo4s {
		if d <= budget {
			pass++
		}
	}
	return 100 * float64(pass) / float64(len(fo4s)), nil
}

// rowOverheadPct returns the chip-area overhead of s spare rows per
// SIMD memory bank, in percent, under the 1:1 memory:logic area split.
func rowOverheadPct(s int) float64 {
	m := sram.SODAMemoryMap(0)
	spareBits := float64(soda.Banks * s * soda.BankLanes * sram.WordBits)
	return 100 * spareBits / float64(2*sram.MapCells(m))
}

// laneOverheadPct returns the chip-area overhead of a spare datapath
// lanes, in percent.
func laneOverheadPct(a int) float64 {
	return 100 * float64(a) / float64(2*soda.Lanes)
}

func runSRAMYield(ctx context.Context, cfg Config) (Result, error) {
	res := &SRAMYieldResult{Samples: cfg.ChipSamples}
	n := cfg.ChipSamples

	for i, node := range tech.Nodes() {
		m := sram.New(node)
		dp := simd.New(node)
		for j, vdd := range sramVdds {
			seed := cfg.Seed + uint64(100+10*(i*len(sramVdds)+j))
			ptCtx, done := phase(ctx, fmt.Sprintf("crossover/%dnm/%.2fV", node.Feature, vdd))
			read, err := m.NewSampler(sram.OpRead, vdd).YieldPctCtx(ptCtx, seed, n)
			if err != nil {
				return nil, err
			}
			write, err := m.NewSampler(sram.OpWrite, vdd).YieldPctCtx(ptCtx, seed+1, n)
			if err != nil {
				return nil, err
			}
			logic, err := logicYieldMC(ptCtx, dp, seed+2, n, vdd, 0)
			done()
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, SRAMYieldRow{
				Node: node.Name, Vdd: vdd,
				ReadMC: read, WriteMC: write,
				ReadAnalytic: 100 * m.Yield(sram.OpRead, vdd),
				LogicMC:      logic,
				DeltaPP:      read - logic,
			})
		}
	}

	// Spare-split comparison at the stress point where the repair budget
	// actually moves chip yield: 32 nm at 0.60 V, where the banked
	// memory is marginal and responds to spare rows. Note the ceiling:
	// rows beyond ~8 per bank stop helping because the unspared vector
	// RF and XRAM floors, not the banks, then dominate memory failures
	// (visible below as identical yields for the 13- and 26-row
	// policies).
	node := tech.N32
	const vdd = 0.60
	res.StressNode = node.Name
	res.StressVdd = vdd
	dp := simd.New(node)
	for k, split := range spareSplits {
		seed := cfg.Seed + uint64(500+10*k)
		spCtx, done := phase(ctx, "sparesplit/"+strings.ReplaceAll(split.name, " ", "-"))
		mem, err := sram.New(node).WithSpareRows(split.rows).NewSampler(sram.OpRead, vdd).YieldPctCtx(spCtx, seed, n)
		if err != nil {
			return nil, err
		}
		logic, err := logicYieldMC(spCtx, dp, seed+1, n, vdd, split.aExt)
		done()
		if err != nil {
			return nil, err
		}
		res.Splits = append(res.Splits, SpareSplitRow{
			Policy:     split.name,
			SpareRows:  split.rows,
			SpareLanes: split.aExt,
			OverheadPct: rowOverheadPct(split.rows) +
				laneOverheadPct(split.aExt),
			MemYield:   mem,
			LogicYield: logic,
			Combined:   mem * logic / 100,
		})
	}
	return res, nil
}
