package sweep

import (
	"context"
	"testing"

	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// The MC-vs-SSTA benchmark pairs below are the committed evidence for
// the mode knob's cost contract (docs/SSTA.md): each pair evaluates one
// kernel at the same grid point (22nm, 0.55 V) with its Monte-Carlo
// estimator at the kernel's default sample count and with its analytic
// law. BENCH_*.json snapshots record both, so the SSTA speedup on
// resolved grid points is part of the repo's performance trajectory.

func benchPoint() (tech.Node, float64) { return tech.N22, 0.55 }

func benchEvalMC(b *testing.B, id string) { benchEvalMCAt(b, id, 3) }

// benchEvalMCAt times kernel id's Monte-Carlo estimator with tail
// targets at tailSigma.
func benchEvalMCAt(b *testing.B, id string, tailSigma float64) {
	node, vdd := benchPoint()
	k := kernels[id]
	opt := Options{TailSigma: tailSigma}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := k.Eval(context.Background(), node, vdd, k.DefaultSamples, 42, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEvalSSTA(b *testing.B, id string) {
	node, vdd := benchPoint()
	k := kernels[id]
	opt := Options{TailSigma: 3}
	chipLaw(node, vdd) // warm the process-global law cache, as in service steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.SSTA(node, vdd, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelChain3SigmaMC(b *testing.B)   { benchEvalMC(b, "chain3sigma") }
func BenchmarkKernelChain3SigmaSSTA(b *testing.B) { benchEvalSSTA(b, "chain3sigma") }

func BenchmarkKernelP99ChipClockMC(b *testing.B)   { benchEvalMC(b, "p99chipclock") }
func BenchmarkKernelP99ChipClockSSTA(b *testing.B) { benchEvalSSTA(b, "p99chipclock") }

func BenchmarkKernelTailYieldMC(b *testing.B)   { benchEvalMC(b, "tailyield") }
func BenchmarkKernelTailYieldSSTA(b *testing.B) { benchEvalSSTA(b, "tailyield") }

// BenchmarkKernelTailYieldMCDefaultSigma times tailyield at the tail
// target a spec that omits tail_sigma gets, DefaultTailSigma, which is
// what mc-study's tail sweeps run; the σ 3 case above keeps the
// committed snapshots' series.
func BenchmarkKernelTailYieldMCDefaultSigma(b *testing.B) {
	benchEvalMCAt(b, "tailyield", DefaultTailSigma)
}

// BenchmarkKernelSSTALawBuild is the one-time cost the law cache
// amortizes: constructing the analytic chip-delay law from scratch.
func BenchmarkKernelSSTALawBuild(b *testing.B) {
	node, vdd := benchPoint()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ssta.NewLaw(node.Dev, node.Var, vdd, tech.ChainLength,
			simd.DefaultPathsPerLane, simd.DefaultLanes)
	}
}

// BenchmarkKernelSweepAuto runs a full three-point auto-mode sweep
// whose decision band refines exactly one point with Monte-Carlo —
// the cheap-screen/expensive-confirm pattern end to end — against
// BenchmarkKernelSweepMC, the same grid fully sampled.
func BenchmarkKernelSweepAuto(b *testing.B) {
	spec := Spec{
		Metric: "p99chipclock", Mode: ModeAuto,
		AutoThreshold: 72.3, AutoBand: 0.04,
		Nodes:   []string{"22nm"},
		Vdd:     &VddAxis{From: 0.50, To: 0.60, Step: 0.05},
		Samples: []int{10000},
		Seed:    42,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSerial(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSweepMC(b *testing.B) {
	spec := Spec{
		Metric:  "p99chipclock",
		Nodes:   []string{"22nm"},
		Vdd:     &VddAxis{From: 0.50, To: 0.60, Step: 0.05},
		Samples: []int{10000},
		Seed:    42,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunSerial(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}
