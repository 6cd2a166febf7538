package montecarlo

import (
	"context"
	"sync"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// TestProgressReported checks that both entry points announce their
// sample count and tick the reporter to completion.
func TestProgressReported(t *testing.T) {
	f := func(r *rng.Stream) float64 { return r.Float64() }
	const n = 1000

	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"SampleCtx", func(ctx context.Context) error {
			_, err := SampleCtx(ctx, 1, n, f)
			return err
		}},
		{"SampleFlatCtx", func(ctx context.Context) error {
			_, err := SampleFlatCtx(ctx, 1, n, 3, func(r *rng.Stream, dst []float64) {
				for i := range dst {
					dst[i] = r.Float64()
				}
			})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := telemetry.NewProgress()
			ctx := telemetry.WithProgress(context.Background(), p)
			if err := tc.run(ctx); err != nil {
				t.Fatal(err)
			}
			s := p.Snapshot()
			if s.Total != n || s.Done != n {
				t.Errorf("progress = %d/%d, want %d/%d", s.Done, s.Total, n, n)
			}
		})
	}
}

// TestProgressBitIdentical verifies that a live, never-cancelled
// context carrying a reporter does not perturb the sampled values (the
// nil-reporter contract in reverse) and that the reporter saw every
// sample.
func TestProgressBitIdentical(t *testing.T) {
	f := func(r *rng.Stream) float64 { return r.Norm() }
	plain := sample(t, 99, 700, f)
	p := telemetry.NewProgress()
	ctx, cancel := context.WithCancel(telemetry.WithProgress(context.Background(), p))
	defer cancel()
	instrumented, err := SampleCtx(ctx, 99, 700, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("sample %d differs with a progress reporter attached", i)
		}
	}
	if s := p.Snapshot(); s.Done != 700 || s.Total != 700 {
		t.Errorf("progress = %d/%d, want 700/700", s.Done, s.Total)
	}
}

// TestProgressCancelledPartial checks a cancelled run never reports
// more done work than announced.
func TestProgressCancelledPartial(t *testing.T) {
	p := telemetry.NewProgress()
	ctx, cancel := context.WithCancel(telemetry.WithProgress(context.Background(), p))
	started := make(chan struct{})
	var once sync.Once
	_, err := SampleCtx(ctx, 5, 200_000, func(r *rng.Stream) float64 {
		once.Do(func() { close(started) })
		<-started
		cancel()
		return r.Float64()
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	s := p.Snapshot()
	if s.Total != 200_000 {
		t.Errorf("total = %d, want 200000", s.Total)
	}
	if s.Done > s.Total {
		t.Errorf("done %d exceeds total %d", s.Done, s.Total)
	}
}

// TestProgressSharedAcrossRuns hammers one reporter from several
// concurrent Monte-Carlo runs, the shape of a real experiment sweeping
// many points under one job; run with -race in CI.
func TestProgressSharedAcrossRuns(t *testing.T) {
	p := telemetry.NewProgress()
	ctx := telemetry.WithProgress(context.Background(), p)
	f := func(r *rng.Stream) float64 { return r.Float64() }
	const runs, n = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := SampleCtx(ctx, uint64(i), n, f); err != nil {
				t.Errorf("run %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Done != runs*n || s.Total != runs*n {
		t.Errorf("progress = %d/%d, want %d/%d", s.Done, s.Total, runs*n, runs*n)
	}
}
