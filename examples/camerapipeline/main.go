// Camerapipeline: run a digital-camera processing chain (the Diet SODA
// target workload) on the PE simulator, with faulty SIMD lanes repaired
// through the XRAM global-sparing bypass.
//
// The pipeline converts a 128-pixel RGB row to YCbCr, low-pass filters
// the luma with an 8-tap FIR, and reduces the chroma planes — then
// repeats the run with timing-error injection at a chosen rate to show
// the recovery cost, and demonstrates that data routed around faulty
// physical FUs through the XRAM is bit-identical to the healthy run.
//
// Run: go run ./examples/camerapipeline [-errp 0.001] [-faulty 3,7]
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/soda"
	"github.com/ntvsim/ntvsim/internal/timingerr"
	"github.com/ntvsim/ntvsim/internal/xram"
)

func main() {
	errP := flag.Float64("errp", 0.001, "per-lane per-op timing-error probability for the NTV run")
	faultyFlag := flag.String("faulty", "2,3,70", "comma-separated faulty physical lane indices")
	flag.Parse()

	r := rng.New(42)
	rgb := make([][]uint16, 3)
	for p := range rgb {
		rgb[p] = make([]uint16, soda.Lanes)
		for i := range rgb[p] {
			rgb[p][i] = uint16(r.IntN(256))
		}
	}

	// Stage 1+2: color conversion then FIR on the PE simulator.
	stages := []soda.Kernel{
		soda.RGBToYCbCrKernel(rgb[0], rgb[1], rgb[2]),
		soda.FIRKernel(rgb[1], []int16{1, 2, 4, 8, 8, 4, 2, 1}),
		soda.DotProductKernel(rgb[0], rgb[2]),
	}

	fmt.Println("=== error-free run (full voltage) ===")
	runPipeline(stages, nil, false, 0)

	fmt.Println("\n=== near-threshold run, error-free (SIMD clock ÷4) ===")
	totalNTVClean := runPipeline(stages, nil, true, 0)

	fmt.Printf("\n=== near-threshold run, per-lane error probability %g, stall recovery ===\n", *errP)
	totalNTV := runPipeline(stages, func() soda.ErrorModel {
		return timingerr.Stall{Lanes: soda.Lanes, P: *errP}
	}, true, 77)
	fmt.Printf("\nrecovery overhead at NTV: %.2f%% extra cycles\n",
		100*(float64(totalNTV)/float64(totalNTVClean)-1))

	// Stage 3: route the luma row through an XRAM with spare lanes and
	// faulty FUs — global sparing in action on real data.
	var faulty []int
	for _, f := range strings.Split(*faultyFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			log.Fatalf("bad -faulty list: %v", err)
		}
		faulty = append(faulty, v)
	}
	fmt.Printf("\n=== XRAM global-sparing bypass: %d spares, faulty lanes %v ===\n",
		len(faulty)+2, faulty)
	if err := bypassRun(rgb[1], faulty, len(faulty)+2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("bypassed result bit-identical to healthy-array result ✓")
}

// runPipeline executes all kernels on one PE, printing per-stage stats;
// it returns total cycles. mk builds a fresh error model per stage (nil
// for error-free); ntv selects the slow near-threshold SIMD clock.
func runPipeline(stages []soda.Kernel, mk func() soda.ErrorModel, ntv bool, seed uint64) int {
	total := 0
	for _, k := range stages {
		pe := soda.NewPE()
		if ntv {
			pe.Clock = soda.ClockConfig{MemLatency: 2, ClockRatio: 4}
		}
		if mk != nil {
			pe.Err = mk()
			pe.Rand = rng.New(seed)
		}
		if err := soda.RunKernel(pe, k); err != nil {
			log.Fatal(err)
		}
		s := pe.Stats
		fmt.Printf("  %-12s %5d cycles, %3d vector ops, %2d mem rows, %d errors (+%d stall)\n",
			k.Name, s.Cycles, s.VectorOps, s.MemRowOps, s.TimingErrors, s.RecoveryStall)
		total += s.Cycles
	}
	fmt.Printf("  pipeline total: %d cycles (outputs verified against golden models)\n", total)
	return total
}

// bypassRun pushes data through a physical lane array with faulty lanes
// masked out by XRAM scatter/gather configurations, applying a doubling
// "compute" step on the physical lanes, and checks the result matches a
// fault-free array.
func bypassRun(data []uint16, faulty []int, spares int) error {
	mapping, out, err := xram.Bypass(soda.Lanes+spares, faulty, data, func(v uint16) uint16 { return 2 * v })
	if err != nil {
		return err
	}
	for i, v := range out {
		if v != data[i]*2 {
			return fmt.Errorf("lane %d: bypassed result %d, want %d", i, v, data[i]*2)
		}
	}
	fmt.Printf("  logical→physical map (first 12): %v…\n", mapping[:12])
	return nil
}
