package importance

import (
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// The kernel benchmarks measure the committed BENCH_*.json claim: at a
// 4σ chip tail-yield target the importance sampler buys its speedup in
// variance, not wall-clock — per-sample cost is within a small factor
// of plain MC while the equal-accuracy sample count drops by orders of
// magnitude. Both benchmarks draw the same number of samples from the
// same analytic chip law; xreduction on the IS side is the per-sample
// variance ratio binomial/IS, i.e. how many MC samples one IS sample
// is worth at this target.

const (
	benchVdd     = 0.5
	benchSamples = 4096
	benchSigma   = 4.0
)

func benchChipLaw(b *testing.B) (fn func(float64) float64, target float64) {
	b.Helper()
	dp := simd.New(tech.N32)
	fn, err := dp.ChipQuantileFn(benchVdd)
	if err != nil {
		b.Fatal(err)
	}
	target, err = dp.ChipQuantile(benchVdd, stdNormal.CDF(benchSigma))
	if err != nil {
		b.Fatal(err)
	}
	return fn, target
}

func BenchmarkKernelMCTailYield(b *testing.B) {
	fn, target := benchChipLaw(b)
	pTrue := 1 - stdNormal.CDF(benchSigma)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xs, ws := sample(b, Params{Mix: 1}, uint64(i)+1, benchSamples, fn)
		TailProb(xs, ws, target)
	}
	b.ReportMetric(float64(benchSamples), "samples/op")
	// At p ≈ 3.2e-5 a 4096-sample MC run usually sees zero events, so
	// the empirical stderr is degenerate; report the binomial floor.
	b.ReportMetric(math.Sqrt((1-pTrue)/(pTrue*benchSamples)), "relerr/op")
}

func BenchmarkKernelISTailYield(b *testing.B) {
	fn, target := benchChipLaw(b)
	pTrue := 1 - stdNormal.CDF(benchSigma)
	params := Params{Shift: benchSigma, Mix: DefaultMix}
	var p, se float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xs, ws := sample(b, params, uint64(i)+1, benchSamples, fn)
		p, se = TailProb(xs, ws, target)
	}
	b.ReportMetric(float64(benchSamples), "samples/op")
	b.ReportMetric(se/p, "relerr/op")
	// Equal-accuracy sample reduction vs plain MC at this target:
	// binomial per-sample variance over IS per-sample variance.
	b.ReportMetric(pTrue*(1-pTrue)/(se*se*benchSamples), "xreduction/op")
}
