// Sparingplan: choose the cheapest variation-tolerance scheme for a
// near-threshold SIMD design point — the Table 3 workflow as a tool.
//
// Given a technology node and an operating voltage, it sizes pure
// structural duplication, pure voltage margining, and combinations, and
// prints the power-cheapest plan.
//
// Run: go run ./examples/sparingplan [-node 45nm] [-vdd 0.6]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"

	"github.com/ntvsim/ntvsim/internal/margin"
	"github.com/ntvsim/ntvsim/internal/power"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/sparing"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func main() {
	nodeName := flag.String("node", "45nm", "technology node: 90nm, 45nm, 32nm, 22nm")
	vdd := flag.Float64("vdd", 0.60, "near-threshold operating voltage (V)")
	samples := flag.Int("samples", 4000, "Monte-Carlo samples per search step")
	flag.Parse()

	node, err := tech.ByName(*nodeName)
	if err != nil {
		log.Fatal(err)
	}
	if *vdd < node.VddMin || *vdd > node.VddNominal {
		log.Fatalf("vdd %.2f outside [%.2f, %.2f] for %s",
			*vdd, node.VddMin, node.VddNominal, node.Name)
	}

	dp := simd.New(node)
	const seed = 1
	ctx := context.Background()
	base, err := dp.P99ChipDelayFO4Ctx(ctx, seed, *samples, node.VddNominal, 0)
	if err != nil {
		log.Fatal(err)
	}
	target := margin.TargetDelay(dp, *vdd, base)
	fmt.Printf("design point: %s, 128-wide SIMD @%.0f mV\n", node.Name, *vdd*1e3)
	fmt.Printf("target: match the %.1f V baseline p99 of %.2f FO4 → %.3f ns at %.0f mV\n\n",
		node.VddNominal, base, target*1e9, *vdd*1e3)

	// Pure duplication.
	sample, err := dp.SpareSampleCtx(ctx, seed, *samples, *vdd, 128)
	if err != nil {
		log.Fatal(err)
	}
	sr := sparing.MinSpares(sample, base)
	if sr.Found {
		fmt.Printf("pure duplication:  %3d spares            → %5.2f%% power, %5.2f%% area\n",
			sr.Spares, power.SparePowerOverheadPct(sr.Spares), power.SpareAreaOverheadPct(sr.Spares))
	} else {
		fmt.Printf("pure duplication:  >128 spares (infeasible at this voltage)\n")
	}

	// Pure margining and combinations.
	candidates := []int{0, 1, 2, 4, 8, 16, 32}
	choices, err := margin.CombinedCtx(ctx, dp, seed, *samples, *vdd, target, 0.1e-3, candidates)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncombined duplication + margining:")
	fmt.Printf("  %7s %12s %14s\n", "spares", "margin", "power ovhd")
	for _, c := range choices {
		if math.IsInf(c.Margin, 1) {
			continue
		}
		fmt.Printf("  %7d %9.1f mV %13.2f%%\n", c.Spares, c.Margin*1e3, c.PowerPct)
	}
	best := margin.Best(choices)
	fmt.Printf("\nrecommended plan: %d spare FUs + %.1f mV margin (%.2f%% power overhead)\n",
		best.Spares, best.Margin*1e3, best.PowerPct)
	fmt.Println("spares are routed in via the global XRAM bypass (see examples/camerapipeline).")
}
