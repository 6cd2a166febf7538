package montecarlo

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"github.com/ntvsim/ntvsim/internal/faults"
	"github.com/ntvsim/ntvsim/internal/rng"
)

// TestInjectedChunkError proves the chunk-boundary hook: an armed
// injector fails the sampling call with its typed error, and the same
// call without an injector is untouched.
func TestInjectedChunkError(t *testing.T) {
	fn := func(r *rng.Stream) float64 { return r.Float64() }
	want := sample(t, 42, 500, fn)
	in := faults.New(1, faults.Rule{Site: faults.SiteMonteCarloChunk, Kind: faults.KindError})
	ctx := faults.With(context.Background(), in)
	_, err := SampleCtx(ctx, 42, 500, fn)
	var fe *faults.Error
	if !errors.As(err, &fe) {
		t.Fatalf("SampleCtx under an armed injector returned %v, want *faults.Error", err)
	}
	if in.Fired() != 1 {
		t.Fatalf("injector fired %d times, want 1", in.Fired())
	}
	// A later, clean call is bit-identical to the one before it.
	out, err := SampleCtx(context.Background(), 42, 500, fn)
	if err != nil {
		t.Fatalf("clean SampleCtx: %v", err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("sample %d diverged after an injected run: %g vs %g", i, out[i], want[i])
		}
	}
}

// TestWorkerPanicContained pins the panic contract of the parallel
// paths: a panic in fn surfaces as a panic on the calling goroutine —
// carrying the worker's original stack — instead of killing the process
// from a bare worker goroutine. GOMAXPROCS is raised for the test so
// the goroutine-spawning path runs even on single-CPU machines (the
// single-worker path panics on the caller goroutine natively and needs
// no containment).
func TestWorkerPanicContained(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	paths := []struct {
		name string
		call func(ctx context.Context, fn func(r *rng.Stream) float64)
	}{
		{"SampleCtx", func(ctx context.Context, fn func(r *rng.Stream) float64) {
			_, _ = SampleCtx(ctx, 1, 4096, fn)
		}},
		{"SampleFlatCtx", func(ctx context.Context, fn func(r *rng.Stream) float64) {
			_, _ = SampleFlatCtx(ctx, 1, 4096, 1, func(r *rng.Stream, dst []float64) { dst[0] = fn(r) })
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("panic in fn did not propagate to the caller")
				}
				s, ok := r.(interface{ Stack() []byte })
				if !ok || len(s.Stack()) == 0 {
					t.Fatalf("recovered %T without the worker's stack", r)
				}
			}()
			p.call(context.Background(), func(r *rng.Stream) float64 {
				panic("kernel bug")
			})
		})
	}
}

// TestInjectedPanicAtChunk drives the panic through the injector (the
// "panic at sample N" scenario of the fault cookbook) rather than fn.
func TestInjectedPanicAtChunk(t *testing.T) {
	in := faults.New(1, faults.Rule{Site: faults.SiteMonteCarloChunk, Kind: faults.KindPanic, After: 2})
	ctx := faults.With(context.Background(), in)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("injected panic did not propagate")
		}
	}()
	_, _ = SampleCtx(ctx, 1, 4096, func(r *rng.Stream) float64 { return r.Float64() })
}
