package simd

import (
	"context"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// BenchmarkBuildLaw builds and tabulates the canonical chip law from
// scratch: the one-time cost the law memo amortizes per (node, Vdd).
func BenchmarkBuildLaw(b *testing.B) {
	dp := New(tech.N90)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ssta.NewLaw(dp.Node.Dev, dp.Node.Var, 0.55, dp.ChainLen, dp.PathsPerLane, dp.Lanes).Table()
	}
}

func BenchmarkSampleChipDelayFast(b *testing.B) {
	dp := New(tech.N90)
	dp.law(0.55)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.SampleChipDelay(r, 0.55, 0)
	}
}

func BenchmarkSampleChipDelayCorrelated(b *testing.B) {
	dp := New(tech.N90)
	dp.Corr = SharedDie
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dp.SampleChipDelay(r, 0.55, 0)
	}
}

// BenchmarkSampleChipDelayExact draws chips of the gate-level test
// reference: the cost the law-based sampler saves.
func BenchmarkSampleChipDelayExact(b *testing.B) {
	dp := New(tech.N90)
	dp.Lanes = 8
	dp.PathsPerLane = 10
	g := gateLevel{dp, 0.55}
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		benchSink += g.chip(r)
	}
}

// BenchmarkSpareCurve draws 500 chips at 32 spares and reads the p99
// at six spare counts from that one sample.
func BenchmarkSpareCurve(b *testing.B) {
	dp := New(tech.N90)
	alphas := []int{0, 2, 4, 8, 16, 32}
	for i := 0; i < b.N; i++ {
		sample, err := dp.SpareSampleCtx(context.Background(), 1, 500, 0.55, alphas[len(alphas)-1])
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range alphas {
			benchSink += sample.P99FO4(a)
		}
	}
}

// BenchmarkChipQuantileTail inverts the chip CDF at the uniforms a
// 3σ-shifted importance sampler draws, u = Φ(z) with z ~ N(3, 1): most
// land in the last guide cells, where one cell spans many grid knots.
func BenchmarkChipQuantileTail(b *testing.B) {
	fn, err := New(tech.N32).ChipQuantileFn(0.5)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	std := stats.Normal{Mu: 0, Sigma: 1}
	us := make([]float64, 4096)
	for i := range us {
		us[i] = std.CDF(3 + r.Norm())
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fn(us[i%len(us)])
	}
	benchSink = sink
}

var benchSink float64
