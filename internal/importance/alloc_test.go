package importance

import (
	"context"
	"runtime"
	"testing"
)

// Allocation-regression tests in the montecarlo style: single-worker so
// the budget is exact, and every bound is per *call* — the weighted
// sampling path must stay allocation-free per sample like the plain
// kernel it substitutes for.

// allocsSingleWorker reports AllocsPerRun for f with GOMAXPROCS pinned
// to 1.
func allocsSingleWorker(f func()) float64 {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	return testing.AllocsPerRun(10, f)
}

func TestSampleAllocationBound(t *testing.T) {
	const n = 8192
	p := Params{Shift: 4, Mix: 0.25}
	allocs := allocsSingleWorker(func() { sample(t, p, 1, n, identity) })
	// Expected: the flat sample slab (no per-row headers), the xs/ws
	// result slices, one worker stream, closure plumbing — constant per
	// call.
	if allocs > 12 {
		t.Errorf("SampleCtx(n=%d) allocates %v per call, want ≤ 12", n, allocs)
	}
	if perSample := allocs / n; perSample > 0.01 {
		t.Errorf("SampleCtx allocates %v per sample, want 0", perSample)
	}
}

// TestSampleAllocationsDoNotScaleWithN states the amortization property
// directly: quadrupling the sample count must not change the per-call
// allocation count.
func TestSampleAllocationsDoNotScaleWithN(t *testing.T) {
	p := Params{Shift: 3, Mix: 0.25}
	small := allocsSingleWorker(func() { sample(t, p, 3, 1024, identity) })
	large := allocsSingleWorker(func() { sample(t, p, 3, 4096, identity) })
	if large > small {
		t.Errorf("SampleCtx allocations scale with n: %v @1024 vs %v @4096", small, large)
	}
}

// TestTailProbAllocationFree keeps the estimator pass allocation-free
// over retained sample slabs.
func TestTailProbAllocationFree(t *testing.T) {
	xs := make([]float64, 4096)
	ws := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(i)
		ws[i] = 1
	}
	allocs := testing.AllocsPerRun(20, func() { TailProb(xs, ws, 2048) })
	if allocs != 0 {
		t.Errorf("TailProb allocates %v per call, want 0", allocs)
	}
}

// TestTailProbCtxAllocationBound: the tail estimator allocates per
// call — its row slab, one worker stream, closure plumbing — never per
// sample, so quadrupling the sample count leaves the count unchanged.
func TestTailProbCtxAllocationBound(t *testing.T) {
	tail := func(n int) func() {
		return func() {
			if _, _, _, err := TailProbCtx(context.Background(), Params{Shift: 3, Mix: 0.25}, 5, n, identity, 3, stdNormal.CDF(2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := allocsSingleWorker(tail(1024))
	large := allocsSingleWorker(tail(4096))
	if large > small {
		t.Errorf("TailProbCtx allocations scale with n: %v @1024 vs %v @4096", small, large)
	}
	if large > 12 {
		t.Errorf("TailProbCtx(n=4096) allocates %v per call, want ≤ 12", large)
	}
}
