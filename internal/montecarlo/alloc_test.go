package montecarlo

import (
	"context"
	"runtime"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
)

// The allocation-regression tests run single-worker (GOMAXPROCS=1) so
// the budget is exact: parallel runs add a fixed per-worker overhead
// (goroutine, errs slice, one stream each) that is still O(workers) per
// call, never O(n) per sample. Each budget is a per-*call* bound — the
// point is that it does not scale with the sample count.

// allocsSingleWorker reports AllocsPerRun for f with GOMAXPROCS pinned
// to 1.
func allocsSingleWorker(f func()) float64 {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	return testing.AllocsPerRun(10, f)
}

func TestSampleAllocationBound(t *testing.T) {
	const n = 8192
	fn := func(r *rng.Stream) float64 { return r.Float64() }
	allocs := allocsSingleWorker(func() { sample(t, 1, n, fn) })
	// Expected: the n-float result slice, one worker stream, closure
	// plumbing. The result slice is the output, not hot-loop garbage.
	if allocs > 8 {
		t.Errorf("SampleCtx(n=%d) allocates %v per call, want ≤ 8", n, allocs)
	}
	if perSample := allocs / n; perSample > 0.001 {
		t.Errorf("SampleCtx allocates %v per sample, want 0 (was 1+ before stream reuse)", perSample)
	}
}

func TestSampleFlatAllocationBound(t *testing.T) {
	const n, width = 4096, 8
	fn := func(r *rng.Stream, dst []float64) {
		for i := range dst {
			dst[i] = r.Float64()
		}
	}
	allocs := allocsSingleWorker(func() {
		if _, err := SampleFlatCtx(context.Background(), 1, n, width, fn); err != nil {
			t.Fatal(err)
		}
	})
	// Expected: ONE flat slab, one worker stream, closure plumbing — no
	// row headers at all, so nothing here is pointer-dense for the GC.
	if allocs > 6 {
		t.Errorf("SampleFlatCtx(n=%d,width=%d) allocates %v per call, want ≤ 6", n, width, allocs)
	}
}

// TestAllocationsDoNotScaleWithN is the amortization property stated
// directly: quadrupling the sample count must not change the per-call
// allocation count (the result slice is one allocation at any n).
func TestAllocationsDoNotScaleWithN(t *testing.T) {
	fn := func(r *rng.Stream) float64 { return r.Norm() }
	small := allocsSingleWorker(func() { sample(t, 3, 1024, fn) })
	large := allocsSingleWorker(func() { sample(t, 3, 4096, fn) })
	if large > small {
		t.Errorf("SampleCtx allocations scale with n: %v @1024 vs %v @4096", small, large)
	}
}
