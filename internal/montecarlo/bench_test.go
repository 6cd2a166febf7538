package montecarlo

import (
	"context"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
)

// Kernel microbenchmarks: the raw sampling loops that every figure and
// table in the study runs millions of times. Each reports samples/sec so
// the BENCH_*.json trajectory (see docs/BENCHMARKS.md) tracks kernel
// throughput directly, alongside the per-artifact benchmarks in the
// repository root. kernelN is sized so one op is big enough to amortize
// per-call setup but small enough for -benchtime=10x CI smoke runs.
const kernelN = 1 << 14

// benchSamplesPerSec attaches the throughput metric: ops·samplesPerOp
// over elapsed time.
func benchSamplesPerSec(b *testing.B, samplesPerOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(samplesPerOp)*float64(b.N)/s, "samples/sec")
	}
}

// BenchmarkKernelSample measures the value-retaining scalar kernel used
// by the distribution and quantile figures.
func BenchmarkKernelSample(b *testing.B) {
	fn := func(r *rng.Stream) float64 { return r.Norm() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleCtx(context.Background(), 20120603, kernelN, fn); err != nil {
			b.Fatal(err)
		}
	}
	benchSamplesPerSec(b, kernelN)
}

// BenchmarkKernelSampleFlat measures the vector kernel behind the
// lane-delay sweeps (width 16 ≈ one SIMD cluster of lanes).
func BenchmarkKernelSampleFlat(b *testing.B) {
	const width = 16
	fn := func(r *rng.Stream, dst []float64) {
		for i := range dst {
			dst[i] = r.Norm()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SampleFlatCtx(context.Background(), 20120603, kernelN/width, width, fn); err != nil {
			b.Fatal(err)
		}
	}
	benchSamplesPerSec(b, kernelN/width*width)
}

// BenchmarkKernelMomentsSerial pins single-worker throughput of a
// Gaussian statistic accumulated in place (the per-sample cost with no
// parallel speedup masking it), for comparing kernel changes across
// machines with different core counts.
func BenchmarkKernelMomentsSerial(b *testing.B) {
	fn := func(r *rng.Stream) float64 { return r.Gauss(3, 2) }
	var total float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := runSpan(context.Background(), nil, 20120603, 0, kernelN, func(_ int, r *rng.Stream) {
			total += fn(r)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	benchSamplesPerSec(b, kernelN)
	_ = total
}
