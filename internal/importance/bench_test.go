package importance

import (
	"context"
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/tech"
)

// The kernel benchmarks measure the committed BENCH_*.json claim: at a
// 4σ chip tail-yield target the importance sampler buys its speedup in
// variance, not wall-clock — per-sample cost is within a small factor
// of plain MC while the equal-accuracy sample count drops by orders of
// magnitude. Both benchmarks run the tail estimator the sweep kernels
// run (TailProbCtx, censoring at the chip table's floor) for the same
// number of samples from the same analytic chip law; xreduction on the
// IS side is the per-sample variance ratio binomial/IS, i.e. how many
// MC samples one IS sample is worth at this target.

const (
	benchVdd     = 0.5
	benchSamples = 4096
	benchSigma   = 4.0
)

// benchChipLaw returns the chip quantile map of the 32 nm datapath at
// benchVdd, the benchSigma target and the table's censoring floor there.
func benchChipLaw() (fn func(float64) float64, target, floor float64) {
	tbl := chipTable(tech.N32, benchVdd)
	u := stdNormal.CDF(benchSigma)
	return tbl.Chip, tbl.Chip(u), tbl.ChipFloor(u)
}

func BenchmarkKernelMCTailYield(b *testing.B) {
	fn, target, floor := benchChipLaw()
	pTrue := 1 - stdNormal.CDF(benchSigma)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := TailProbCtx(context.Background(), Params{Mix: 1}, uint64(i)+1, benchSamples, fn, target, floor); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchSamples), "samples/op")
	// At p ≈ 3.2e-5 a 4096-sample MC run usually sees zero events, so
	// the empirical stderr is degenerate; report the binomial floor.
	b.ReportMetric(math.Sqrt((1-pTrue)/(pTrue*benchSamples)), "relerr/op")
}

func BenchmarkKernelISTailYield(b *testing.B) {
	fn, target, floor := benchChipLaw()
	pTrue := 1 - stdNormal.CDF(benchSigma)
	params := Params{Shift: benchSigma, Mix: DefaultMix}
	var p, se float64
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, se, _, err = TailProbCtx(context.Background(), params, uint64(i)+1, benchSamples, fn, target, floor); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchSamples), "samples/op")
	b.ReportMetric(se/p, "relerr/op")
	// Equal-accuracy sample reduction vs plain MC at this target:
	// binomial per-sample variance over IS per-sample variance.
	b.ReportMetric(pTrue*(1-pTrue)/(se*se*benchSamples), "xreduction/op")
}
