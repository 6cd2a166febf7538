package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/faults"
)

// fastBackoff keeps retry tests quick without losing the seeded jitter.
var fastBackoff = Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 7}

// TestPanicIsolated is the satellite regression test: a panicking Func
// must not take the manager (or the process) down — it finalizes as
// Failed with a captured stack, and the worker keeps serving jobs.
func TestPanicIsolated(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Close()
	id, err := m.Submit("boom", func(ctx context.Context) (any, error) {
		panic("kernel exploded")
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := waitState(t, m, id, 5*time.Second)
	if snap.State != Failed {
		t.Fatalf("panicking job finished %s, want failed", snap.State)
	}
	if !strings.Contains(snap.Error, "panic: kernel exploded") {
		t.Fatalf("error %q does not name the panic", snap.Error)
	}
	if !strings.Contains(snap.Stack, "goroutine") {
		t.Fatalf("snapshot carries no stack: %q", snap.Stack)
	}
	if c := m.Counters(); c.Panics != 1 || c.Failed != 1 {
		t.Fatalf("counters = %+v, want Panics=1 Failed=1", c)
	}

	// The single worker survived: the next job runs to completion.
	id2, err := m.Submit("after", func(ctx context.Context) (any, error) { return "alive", nil })
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	if snap := waitState(t, m, id2, 5*time.Second); snap.State != Done {
		t.Fatalf("job after panic finished %s (%s)", snap.State, snap.Error)
	}
}

func TestPanicIsNotRetried(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Close()
	m.SetBackoff(fastBackoff)
	var calls atomic.Int32
	id, _ := m.SubmitWith("boom", func(ctx context.Context) (any, error) {
		calls.Add(1)
		panic("always")
	}, SubmitOpts{MaxRetries: 5})
	snap := waitState(t, m, id, 5*time.Second)
	if snap.State != Failed || calls.Load() != 1 {
		t.Fatalf("panicking job: state=%s calls=%d, want failed after exactly 1 attempt",
			snap.State, calls.Load())
	}
}

func TestDeadlineFailsJob(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Close()
	id, err := m.SubmitWith("slow", func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, SubmitOpts{Deadline: time.Now().Add(30 * time.Millisecond)})
	if err != nil {
		t.Fatalf("SubmitWith: %v", err)
	}
	snap := waitState(t, m, id, 5*time.Second)
	if snap.State != Failed {
		t.Fatalf("deadline-expired job finished %s, want failed", snap.State)
	}
	if !strings.Contains(snap.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", snap.Error)
	}
	if snap.Deadline.IsZero() {
		t.Fatal("snapshot lost the deadline")
	}
}

func TestTransientRetrySucceeds(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Close()
	m.SetBackoff(fastBackoff)
	var calls atomic.Int32
	id, _ := m.SubmitWith("flaky", func(ctx context.Context) (any, error) {
		if calls.Add(1) < 3 {
			return nil, Transient(errors.New("blip"))
		}
		return "ok", nil
	}, SubmitOpts{MaxRetries: 3})
	snap := waitState(t, m, id, 5*time.Second)
	if snap.State != Done {
		t.Fatalf("flaky job finished %s (%s), want done", snap.State, snap.Error)
	}
	if snap.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", snap.Attempts)
	}
	if c := m.Counters(); c.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", c.Retries)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Close()
	m.SetBackoff(fastBackoff)
	var calls atomic.Int32
	id, _ := m.SubmitWith("flaky", func(ctx context.Context) (any, error) {
		calls.Add(1)
		return nil, Transient(errors.New("always down"))
	}, SubmitOpts{MaxRetries: 2})
	snap := waitState(t, m, id, 5*time.Second)
	if snap.State != Failed || !strings.Contains(snap.Error, "always down") {
		t.Fatalf("job finished %s (%q), want failed with the last error", snap.State, snap.Error)
	}
	if calls.Load() != 3 { // 1 + MaxRetries
		t.Fatalf("Func ran %d times, want 3", calls.Load())
	}
}

func TestNonTransientErrorIsNotRetried(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Close()
	m.SetBackoff(fastBackoff)
	var calls atomic.Int32
	id, _ := m.SubmitWith("hard", func(ctx context.Context) (any, error) {
		calls.Add(1)
		return nil, errors.New("plain failure")
	}, SubmitOpts{MaxRetries: 5})
	if snap := waitState(t, m, id, 5*time.Second); snap.State != Failed || calls.Load() != 1 {
		t.Fatalf("plain error: state=%s calls=%d, want failed after 1 attempt",
			snap.State, calls.Load())
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{Transient(errors.New("x")), true},
		{fmt.Errorf("wrapped: %w", Transient(errors.New("x"))), true},
		{&faults.Error{Site: "s", N: 1}, true},
		{&faults.Error{Site: "s", N: 1, Permanent: true}, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{Transient(context.Canceled), false}, // context ends always win
	}
	for i, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("case %d: IsTransient(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) must stay nil")
	}
}

// TestBackoffDeterministicAndBounded pins the Delay contract: pure in
// (Seed, jobSeq, attempt), within [Base/2, Max), and jittered across
// jobs.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Seed: 99}
	for attempt := 1; attempt <= 10; attempt++ {
		d1, d2 := b.Delay(1, attempt), b.Delay(1, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: Delay not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 < b.Base/2 || d1 >= b.Max {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d1, b.Base/2, b.Max)
		}
	}
	// Exponential growth before the cap: attempt 3's ceiling (40ms)
	// exceeds attempt 1's (10ms).
	if d1, d3 := b.Delay(1, 1), b.Delay(1, 3); d1 >= 10*time.Millisecond || d3 < 10*time.Millisecond {
		t.Fatalf("no exponential shape: attempt1=%v attempt3=%v", d1, d3)
	}
	// Different jobs jitter differently (with overwhelming probability
	// across 8 attempts).
	same := true
	for attempt := 1; attempt <= 8; attempt++ {
		if b.Delay(1, attempt) != b.Delay(2, attempt) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two jobs share an identical backoff schedule; jitter is not per-job")
	}
}

func TestInjectedFaultAtJobAttempt(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Close()
	m.SetBackoff(fastBackoff)
	in := faults.New(1, faults.Rule{Site: faults.SiteJobAttempt, Kind: faults.KindError, After: 1})
	var ran atomic.Int32
	id, _ := m.SubmitWith("injected", func(ctx context.Context) (any, error) {
		ran.Add(1)
		return "ok", nil
	}, SubmitOpts{Parent: faults.With(context.Background(), in), MaxRetries: 2})
	snap := waitState(t, m, id, 5*time.Second)
	if snap.State != Done {
		t.Fatalf("job finished %s (%s), want done after retrying the injected fault", snap.State, snap.Error)
	}
	// The first attempt died in the hook before reaching the Func.
	if ran.Load() != 1 || snap.Attempts != 2 {
		t.Fatalf("ran=%d attempts=%d, want the Func to run once on attempt 2", ran.Load(), snap.Attempts)
	}
	if in.Fired() != 1 {
		t.Fatalf("injector fired %d times, want 1", in.Fired())
	}
}

func TestDrainFinishesInFlight(t *testing.T) {
	m := NewManager(2, 8)
	release := make(chan struct{})
	var finished atomic.Int32
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := m.Submit("slow", func(ctx context.Context) (any, error) {
			<-release
			finished.Add(1)
			return "done", nil
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, id)
	}
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	// Submissions are rejected as soon as the drain begins.
	draining := func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.closed
	}
	deadline := time.Now().Add(5 * time.Second)
	for !draining() {
		if time.Now().After(deadline) {
			t.Fatal("manager never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit("late", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit during drain returned %v, want ErrClosed", err)
	}
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned")
	}
	if finished.Load() != 4 {
		t.Fatalf("%d jobs finished during drain, want all 4", finished.Load())
	}
	for _, id := range ids {
		if snap, _ := m.Get(id); snap.State != Done {
			t.Fatalf("job %s drained as %s, want done", id, snap.State)
		}
	}
}

func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	m := NewManager(1, 4)
	id, _ := m.Submit("wedged", func(ctx context.Context) (any, error) {
		<-ctx.Done() // honors cancellation, but never finishes on its own
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain returned %v, want DeadlineExceeded", err)
	}
	// Drain waited for the worker to observe the cancellation, so the
	// job is terminal by the time it returns.
	snap, _ := m.Get(id)
	if snap.State != Cancelled {
		t.Fatalf("wedged job drained as %s, want cancelled", snap.State)
	}
}

func TestCancelDuringBackoffIsPrompt(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Close()
	m.SetBackoff(Backoff{Base: time.Hour, Max: time.Hour, Seed: 1}) // sleep forever without cancel
	id, _ := m.SubmitWith("flaky", func(ctx context.Context) (any, error) {
		return nil, Transient(errors.New("blip"))
	}, SubmitOpts{MaxRetries: 1})
	// Wait for the first attempt to fail and the backoff sleep to start.
	deadline := time.Now().Add(5 * time.Second)
	for m.Counters().Retries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never entered backoff")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if _, ok := m.Cancel(id); !ok {
		t.Fatal("Cancel failed")
	}
	snap := waitState(t, m, id, 5*time.Second)
	if snap.State != Cancelled {
		t.Fatalf("cancelled-in-backoff job finished %s", snap.State)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancel during an hour-long backoff was not prompt")
	}
}
