// Quickstart: sample near-threshold delay distributions with the public
// simulation stack — the 60-second tour of the library.
//
// It reproduces in miniature the paper's two headline observations:
// single-gate delay variation explodes at near-threshold voltage, and a
// 50-gate chain averages most of it away — then lifts the same model to
// a full 128-wide SIMD datapath and reports the 99 % chip delay.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/variation"
)

func main() {
	node, err := tech.ByName("90nm")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("technology: %s (nominal %.1f V, Vth %.2f V)\n\n",
		node.Name, node.VddNominal, node.Dev.Vth0)

	// 1. Circuit level: gate vs 50-gate chain across voltages.
	sampler := variation.NewSampler(node.Dev, node.Var)
	const samples = 2000
	fmt.Println("circuit level (2000 Monte-Carlo samples each):")
	fmt.Printf("  %6s %14s %14s\n", "Vdd", "gate 3σ/μ", "chain-50 3σ/μ")
	ctx := context.Background()
	for _, vdd := range []float64{1.0, 0.7, 0.6, 0.5} {
		gate, err := montecarlo.SampleCtx(ctx, 1, samples, func(r *rng.Stream) float64 {
			return sampler.FreshGateDelay(r, vdd)
		})
		if err != nil {
			log.Fatal(err)
		}
		chain, err := montecarlo.SampleCtx(ctx, 2, samples, func(r *rng.Stream) float64 {
			return sampler.FreshChainDelay(r, vdd, tech.ChainLength)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %5.2fV %13.2f%% %13.2f%%\n",
			vdd, stats.ThreeSigmaOverMu(gate), stats.ThreeSigmaOverMu(chain))
	}

	// 2. Architecture level: 128-wide SIMD chip delay.
	dp := simd.New(node)
	fmt.Println("\narchitecture level (128 lanes × 100 critical paths):")
	base, err := dp.P99ChipDelayFO4Ctx(ctx, 3, 4000, node.VddNominal, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  baseline p99 chip delay @%.1fV: %.2f FO4\n", node.VddNominal, base)
	for _, vdd := range []float64{0.6, 0.55, 0.5} {
		p99, err := dp.P99ChipDelayFO4Ctx(ctx, 3, 4000, vdd, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  @%.2fV: %.2f FO4 (%.2f ns) → perf drop %.1f%%\n",
			vdd, p99, p99*dp.FO4(vdd)*1e9, 100*(p99/base-1))
	}
	fmt.Println("\nNext: examples/sparingplan picks the cheapest fix for that drop.")
}
