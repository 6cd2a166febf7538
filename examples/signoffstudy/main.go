// Signoffstudy: compare three ways to sign off the same near-threshold
// SIMD datapath — Monte-Carlo statistical timing (the paper's
// methodology and this library's engine), Clark moment-based SSTA, and
// traditional slow-corner + OCV-derate flows — across supply voltages.
//
// The study surfaces the two failure modes the extensions document:
// corner flows over-margin more and more as Vdd approaches threshold,
// and both analytic methods mis-price the skewed delay tail at advanced
// nodes deep in the NTV regime.
//
// Run: go run ./examples/signoffstudy [-node 90nm] [-samples 6000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"github.com/ntvsim/ntvsim/internal/corners"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func main() {
	nodeName := flag.String("node", "90nm", "technology node: 90nm, 45nm, 32nm, 22nm")
	samples := flag.Int("samples", 6000, "Monte-Carlo samples per voltage")
	flag.Parse()

	node, err := tech.ByName(*nodeName)
	if err != nil {
		log.Fatal(err)
	}
	dp := simd.New(node)
	model := ssta.ChipModel{
		Paths: dp.PathsPerLane, Lanes: dp.Lanes,
		Dev: node.Dev, Var: node.Var, ChainLen: dp.ChainLen,
	}
	totalPaths := dp.Lanes * dp.PathsPerLane

	fmt.Printf("99%% chip-delay signoff, %s 128-wide SIMD (%d MC samples)\n\n", node.Name, *samples)
	fmt.Printf("%6s %14s %14s %16s %10s %10s\n",
		"Vdd", "MC p99", "SSTA p99", "SS+OCV corner", "SSTA err", "corner Δ")
	for _, vdd := range []float64{0.50, 0.55, 0.60, 0.70, node.VddNominal} {
		ds, err := dp.ChipDelaysCtx(context.Background(), 1, *samples, vdd, 0)
		if err != nil {
			log.Fatal(err)
		}
		mc := stats.QuantileInPlace(ds, 0.99)
		analytic := model.ChipP99(vdd)
		signoff := corners.ChipSignoff(node, vdd, totalPaths)
		fmt.Printf("%5.2fV %11.3f ns %11.3f ns %13.3f ns %+9.1f%% %+9.1f%%\n",
			vdd, mc*1e9, analytic*1e9, signoff.DelaySS*1e9,
			100*(analytic/mc-1), 100*(signoff.DelaySS/mc-1))
	}
	fmt.Println("\nSSTA err: Clark analytic vs Monte Carlo (negative = tail underestimate).")
	fmt.Println("corner Δ: slow-corner signoff margin beyond the statistical 99% chip;")
	fmt.Println("growing values toward threshold are the over-margin cost of corner flows.")
}
