package ntvsim

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/ntvsim/ntvsim/internal/experiments"
)

// Golden determinism harness (tier-1): regenerates a reduced-depth
// subset of the paper's artifacts twice — once forced onto a single
// Monte-Carlo worker, once with full parallelism — and requires the
// rendered text and CSV output to be byte-identical. This is the
// repository's reproducibility claim stated as a test: every artifact
// is a deterministic function of (seed, sample index) alone, never of
// GOMAXPROCS, scheduling order, or the kernel's allocation strategy.
// Together with the pinned-value golden tests in internal/rng and
// internal/montecarlo (which freeze the sub-stream derivation itself),
// it makes any behavioural drift in the sampling kernel fail loudly.

// goldenIDs is the spot-check subset: one circuit-level figure (fig2),
// one search-heavy table (table1), one architecture-level extension
// (yield) and the SRAM memory-map crossover (sramyield), covering
// montecarlo's two entry points — SampleCtx (fig2, the chip and SRAM
// samplers) and SampleFlatCtx (table1's spare-curve search).
var goldenIDs = []string{"fig2", "table1", "yield", "sramyield"}

// goldenConfig is reduced-depth so the double regeneration stays in
// tier-1 time budgets; determinism does not depend on the depth.
func goldenConfig() experiments.Config {
	return experiments.Config{
		Seed:           20120603,
		CircuitSamples: 200,
		ChipSamples:    400,
		SearchSamples:  400,
	}
}

// renderAll runs id and returns its full rendered output (text plus CSV
// rows where the result implements CSVer).
func renderAll(t *testing.T, id string) string {
	t.Helper()
	res, err := experiments.RunCtx(context.Background(), id, goldenConfig())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := res.Render()
	if c, ok := res.(experiments.CSVer); ok {
		out += fmt.Sprintf("\ncsv:%v", c.CSV())
	}
	return out
}

func TestGoldenWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double artifact regeneration in -short mode")
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			old := runtime.GOMAXPROCS(1)
			serial := renderAll(t, id)
			runtime.GOMAXPROCS(old)
			parallel := renderAll(t, id)
			if serial != parallel {
				t.Errorf("%s renders differently with 1 worker vs %d:\n--- single worker ---\n%s\n--- parallel ---\n%s",
					id, old, serial, parallel)
			}
		})
	}
}

// TestGoldenRunToRun catches nondeterminism that worker-count variation
// alone can miss (map iteration, time-dependent paths): two runs under
// identical settings must also be byte-identical.
func TestGoldenRunToRun(t *testing.T) {
	if testing.Short() {
		t.Skip("double artifact regeneration in -short mode")
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			if a, b := renderAll(t, id), renderAll(t, id); a != b {
				t.Errorf("%s is not run-to-run deterministic", id)
			}
		})
	}
}
