package sweep

import (
	"context"
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/sram"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// memoNode is a calibrated node under a name no other test uses and
// one ulp off in one variation parameter, so its laws (keyed on the
// node's parameters) and samplers (keyed on its name) are built fresh
// here however the suite ran before.
func memoNode(name string) tech.Node {
	n := tech.N32
	n.Name = name
	n.Var.SigmaMulWID = math.Nextafter(n.Var.SigmaMulWID, 1)
	return n
}

// evalTwice runs kernel id at one grid point under two seeds and
// returns how far the named build counter moved.
func evalTwice(t *testing.T, id, counter string, node tech.Node, vdd float64) float64 {
	t.Helper()
	c := telemetry.Default.Counter(counter, "")
	before := c.Value()
	for _, seed := range []uint64{11, 12} {
		if _, _, err := kernels[id].Eval(context.Background(), node, vdd, 200, seed, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	return c.Value() - before
}

// TestP99ChipClockBuildsLawOnce: fresh seeds at one (node, Vdd) share
// the memoized chip law, so the second evaluation builds nothing.
func TestP99ChipClockBuildsLawOnce(t *testing.T) {
	if got := evalTwice(t, "p99chipclock", "ntvsim_ssta_law_builds_total", memoNode("memo p99"), 0.55); got != 1 {
		t.Errorf("two p99chipclock evals built the law %v times, want 1", got)
	}
}

// TestSRAMReadYieldBuildsTableOnce: fresh seeds at one (node, Vdd)
// share the memoized SRAM sampler, so its die table is built once.
func TestSRAMReadYieldBuildsTableOnce(t *testing.T) {
	if got := evalTwice(t, "sramreadyield", "ntvsim_sram_tables_built_total", memoNode("memo sram"), 0.55); got != 1 {
		t.Errorf("two sramreadyield evals built %v die tables, want 1", got)
	}
	// The memoized sampler is the one a fresh construction would build.
	node := memoNode("memo sram")
	if chipSampler(node, sram.OpRead, 0.55) != chipSampler(node, sram.OpRead, 0.55) {
		t.Error("repeated lookups returned different samplers")
	}
	if chipSampler(node, sram.OpRead, 0.55) == chipSampler(node, sram.OpWrite, 0.55) {
		t.Error("read and write share one sampler")
	}
}
