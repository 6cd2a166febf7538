package montecarlo

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// sample runs SampleCtx under context.Background(), which is never
// cancelled, and fails the test on an error.
func sample(t testing.TB, seed uint64, n int, fn func(r *rng.Stream) float64) []float64 {
	t.Helper()
	out, err := SampleCtx(context.Background(), seed, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSampleDeterministic(t *testing.T) {
	f := func(r *rng.Stream) float64 { return r.Float64() }
	a := sample(t, 1, 1000, f)
	b := sample(t, 1, 1000, f)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SampleCtx not deterministic")
		}
	}
}

func TestSampleIndependentOfParallelism(t *testing.T) {
	f := func(r *rng.Stream) float64 { return r.Norm() }
	old := runtime.GOMAXPROCS(1)
	serial := sample(t, 7, 500, f)
	runtime.GOMAXPROCS(old)
	parallel := sample(t, 7, 500, f)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatal("results depend on GOMAXPROCS")
		}
	}
}

func TestSampleSeedMatters(t *testing.T) {
	f := func(r *rng.Stream) float64 { return r.Float64() }
	a := sample(t, 1, 100, f)
	b := sample(t, 2, 100, f)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same != 0 {
		t.Errorf("%d identical values across seeds", same)
	}
}

// TestSampleVec checks vector-valued sampling through SampleFlatCtx:
// sample i's row holds fn's outputs at slab[i*width : (i+1)*width], and
// the slab is deterministic for a seed.
func TestSampleVec(t *testing.T) {
	const n, width = 100, 3
	fn := func(r *rng.Stream, dst []float64) {
		base := r.Float64()
		for i := range dst {
			dst[i] = base + float64(i)
		}
	}
	slab, err := SampleFlatCtx(context.Background(), 5, n, width, fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(slab) != n*width {
		t.Fatalf("slab length = %d, want %d", len(slab), n*width)
	}
	for i := 0; i < n; i++ {
		row := slab[i*width : (i+1)*width]
		if math.Abs(row[1]-row[0]-1) > 1e-12 || math.Abs(row[2]-row[1]-1) > 1e-12 {
			t.Error("row contents wrong")
		}
	}
	again, err := SampleFlatCtx(context.Background(), 5, n, width, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range slab {
		if slab[i] != again[i] {
			t.Fatal("SampleFlatCtx not deterministic")
		}
	}
}

func TestSmallN(t *testing.T) {
	if got := sample(t, 1, 0, func(*rng.Stream) float64 { return 1 }); len(got) != 0 {
		t.Error("n=0 should give empty slice")
	}
	if got := sample(t, 1, 1, func(*rng.Stream) float64 { return 42 }); len(got) != 1 || got[0] != 42 {
		t.Error("n=1 mishandled")
	}
}

// TestSampleCtxBitIdentical pins the cancellation contract of both
// entry points: a live context that is never cancelled, carrying a
// progress reporter, gives results bit-identical to
// context.Background().
func TestSampleCtxBitIdentical(t *testing.T) {
	live, cancel := context.WithCancel(telemetry.WithProgress(context.Background(), telemetry.NewProgress()))
	defer cancel()

	f := func(r *rng.Stream) float64 { return r.Norm() }
	plain := sample(t, 42, 2000, f)
	withCtx, err := SampleCtx(live, 42, 2000, f)
	if err != nil {
		t.Fatalf("SampleCtx: %v", err)
	}
	for i := range plain {
		if plain[i] != withCtx[i] {
			t.Fatalf("index %d: live ctx %v != background %v", i, withCtx[i], plain[i])
		}
	}

	vec := func(r *rng.Stream, dst []float64) {
		for i := range dst {
			dst[i] = r.Norm()
		}
	}
	flat, err := SampleFlatCtx(context.Background(), 42, 500, 4, vec)
	if err != nil {
		t.Fatalf("SampleFlatCtx: %v", err)
	}
	flatLive, err := SampleFlatCtx(live, 42, 500, 4, vec)
	if err != nil {
		t.Fatalf("SampleFlatCtx: %v", err)
	}
	for i := range flat {
		if flat[i] != flatLive[i] {
			t.Fatalf("slab index %d: live ctx %v != background %v", i, flatLive[i], flat[i])
		}
	}
}

func TestSampleCtxCancelStopsSampling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 1 << 20
	var evaluated atomic.Int64
	_, err := SampleCtx(ctx, 3, n, func(r *rng.Stream) float64 {
		if evaluated.Add(1) == 100 {
			cancel()
		}
		return r.Float64()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker stops within checkEvery samples of the cancellation.
	limit := int64(100 + (runtime.GOMAXPROCS(0)+1)*checkEvery)
	if got := evaluated.Load(); got >= n || got > limit {
		t.Errorf("evaluated %d samples after cancel (limit %d of %d)", got, limit, n)
	}
}

func TestSampleCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SampleCtx(ctx, 1, 100, func(*rng.Stream) float64 { return 0 }); err == nil {
		t.Error("pre-cancelled context accepted")
	}
	if _, err := SampleFlatCtx(ctx, 1, 100, 2, func(*rng.Stream, []float64) {}); err == nil {
		t.Error("SampleFlatCtx pre-cancelled context accepted")
	}
}

func TestSamplesEvaluatedCounter(t *testing.T) {
	before := samplesEvaluated.Load()
	sample(t, 9, 1234, func(r *rng.Stream) float64 { return r.Float64() })
	if got := samplesEvaluated.Load() - before; got < 1234 {
		t.Errorf("counter advanced by %d, want ≥ 1234", got)
	}
}

func TestSpan(t *testing.T) {
	// All indices covered exactly once for any worker split.
	for _, n := range []int{1, 7, 100, 101} {
		for workers := 1; workers <= 8; workers++ {
			covered := make([]int, n)
			for w := 0; w < workers; w++ {
				lo, hi := span(n, workers, w)
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d workers=%d index %d covered %d times", n, workers, i, c)
				}
			}
		}
	}
}
