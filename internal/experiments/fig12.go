package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/sparing"
	"github.com/ntvsim/ntvsim/internal/xram"
)

func init() {
	register("fig12", Architecture, 0,
		"global vs local spare placement under lane faults", runFig12)
}

// Fig12Coverage compares placements at one lane-fault probability.
type Fig12Coverage struct {
	FaultProb float64
	Local     float64 // Synctium-style: 1 spare per 4-lane cluster
	Global    float64 // same spare budget, global pool via XRAM
}

// Fig12Burst compares placements under contiguous burst faults.
type Fig12Burst struct {
	BurstLen int
	Local    float64
	Global   float64
}

// Fig12Result reproduces Figure 12 (Appendix D): global versus local
// spare placement. Local sparing (one spare per cluster of four,
// Synctium-style) fails whenever one cluster collects two faults;
// global sparing through the XRAM crossbar tolerates any fault pattern
// up to the total spare budget. The demo also routes data around faulty
// FUs with actual XRAM bypass configurations (the paper's 8+2 example).
type Fig12Result struct {
	Lanes     int
	Coverage  []Fig12Coverage
	Bursts    []Fig12Burst
	BypassOK  bool   // 8+2 XRAM bypass routed correctly
	BypassLog string // human-readable demo transcript
}

// ID implements Result.
func (r *Fig12Result) ID() string { return "fig12" }

// Render implements Result.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: global vs local sparing, %d lanes, equal spare budget (1 per 4)\n", r.Lanes)
	t := report.NewTable("independent lane faults", "P(lane fault)", "local coverage", "global coverage")
	for _, c := range r.Coverage {
		t.AddRowf(fmt.Sprintf("%.3f", c.FaultProb),
			fmt.Sprintf("%.4f", c.Local), fmt.Sprintf("%.4f", c.Global))
	}
	b.WriteString(t.String())
	t2 := report.NewTable("contiguous burst faults", "burst length", "local coverage", "global coverage")
	for _, c := range r.Bursts {
		t2.AddRowf(fmt.Sprintf("%d", c.BurstLen),
			fmt.Sprintf("%.4f", c.Local), fmt.Sprintf("%.4f", c.Global))
	}
	b.WriteString(t2.String())
	b.WriteString(r.BypassLog)
	return b.String()
}

func runFig12(ctx context.Context, cfg Config) (Result, error) {
	const lanes = 128
	local := sparing.Placement{Lanes: lanes, ClusterSize: 4, SparesPerCluster: 1}
	global := sparing.Placement{Lanes: lanes, ClusterSize: lanes, SparesPerCluster: local.Spares()}

	res := &Fig12Result{Lanes: lanes}
	for _, p := range []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.1} {
		res.Coverage = append(res.Coverage, Fig12Coverage{
			FaultProb: p,
			Local:     local.IndependentCoverage(p),
			Global:    global.IndependentCoverage(p),
		})
	}
	for _, blen := range []int{1, 2, 3, 4, 8, 16, 32} {
		res.Bursts = append(res.Bursts, Fig12Burst{
			BurstLen: blen,
			Local:    local.BurstCoverage(blen, cfg.Seed, 4000),
			Global:   global.BurstCoverage(blen, cfg.Seed, 4000),
		})
	}

	log, ok := bypassDemo()
	res.BypassLog, res.BypassOK = log, ok
	return res, nil
}

// bypassDemo reproduces the paper's Figure 12(c): ten physical FUs
// (8 + 2 spares) with FU-2 and FU-3 faulty; the XRAM scatter/gather
// configurations (xram.Bypass) route eight logical lanes around the
// faults, and the demo verifies data comes back intact after a doubling
// "computation".
func bypassDemo() (string, bool) {
	const physical = 10
	const logical = 8
	faulty := []int{2, 3}

	var b strings.Builder
	fmt.Fprintf(&b, "XRAM bypass demo: %d FUs (%d + %d spares), faulty %v\n",
		physical, logical, physical-logical, faulty)

	in := make([]uint16, logical)
	for i := range in {
		in[i] = uint16(100 + i)
	}
	// "Compute": healthy FUs double their operand; faulty FUs corrupt.
	mapping, out, err := xram.Bypass(physical, faulty, in, func(v uint16) uint16 { return 2 * v })
	if err != nil {
		fmt.Fprintf(&b, "bypass failed: %v\n", err)
		return b.String(), false
	}
	fmt.Fprintf(&b, "logical→physical map: %v\n", mapping)

	ok := true
	for i, v := range out {
		if want := 2 * in[i]; v != want {
			fmt.Fprintf(&b, "lane %d: got %d, want %d\n", i, v, want)
			ok = false
		}
	}
	if ok {
		fmt.Fprintf(&b, "all %d logical lanes correct despite faulty FUs %v\n", logical, faulty)
	}
	return b.String(), ok
}
