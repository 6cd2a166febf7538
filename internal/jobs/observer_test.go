package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// doneLog records OnDone notifications per job id.
type doneLog struct {
	mu    sync.Mutex
	snaps map[string][]Snapshot
}

func newDoneLog() *doneLog { return &doneLog{snaps: map[string][]Snapshot{}} }

func (d *doneLog) record(s Snapshot) {
	d.mu.Lock()
	d.snaps[s.ID] = append(d.snaps[s.ID], s)
	d.mu.Unlock()
}

// waitFor polls until n jobs have been notified, then returns a copy.
func (d *doneLog) waitFor(t *testing.T, n int) map[string][]Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.mu.Lock()
		got := len(d.snaps)
		d.mu.Unlock()
		if got >= n || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string][]Snapshot, len(d.snaps))
	for id, s := range d.snaps {
		out[id] = append([]Snapshot(nil), s...)
	}
	return out
}

// TestObserverNotifiedOnceTerminal covers the OnDone contract the run
// ledger relies on: exactly one notification per job — done, failed,
// panicked or retried — carrying the terminal snapshot, delivered
// outside the manager lock (the hook calls back into the Manager to
// prove it).
func TestObserverNotifiedOnceTerminal(t *testing.T) {
	m := NewManager(2, 8)
	defer m.Close()
	m.SetBackoff(Backoff{Base: time.Microsecond, Max: time.Microsecond, Seed: 1})

	log := newDoneLog()
	opts := SubmitOpts{OnDone: func(s Snapshot) {
		// Re-entrancy: calls that take the manager lock must not
		// deadlock, and they already see the job as terminal.
		m.Counters()
		m.List()
		m.Pending()
		if got, _ := m.Get(s.ID); got.State != s.State {
			t.Errorf("job %s: Get inside OnDone says %s, snapshot %s", s.ID, got.State, s.State)
		}
		log.record(s)
	}}
	submit := func(name string, fn Func, opts SubmitOpts) string {
		t.Helper()
		id, err := m.SubmitWith(name, fn, opts)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	okID := submit("ok", func(ctx context.Context) (any, error) { return 7, nil }, opts)
	failID := submit("boom", func(ctx context.Context) (any, error) {
		return nil, errors.New("kaput")
	}, opts)
	panicID := submit("panic", func(ctx context.Context) (any, error) {
		panic("exploded")
	}, opts)
	var calls int
	retryOpts := opts
	retryOpts.MaxRetries = 2
	retryID := submit("retry", func(ctx context.Context) (any, error) {
		if calls++; calls == 1 {
			return nil, Transient(errors.New("flaky"))
		}
		return "ok", nil
	}, retryOpts)
	// A job without the hook is never reported.
	silentID := submit("silent", func(ctx context.Context) (any, error) { return nil, nil }, SubmitOpts{})
	for _, id := range []string{okID, failID, panicID, retryID, silentID} {
		waitState(t, m, id, 5*time.Second)
	}

	got := log.waitFor(t, 4)
	want := map[string]State{okID: Done, failID: Failed, panicID: Failed, retryID: Done}
	for id, state := range want {
		snaps := got[id]
		if len(snaps) != 1 {
			t.Fatalf("job %s: %d notifications, want 1", id, len(snaps))
		}
		if snaps[0].State != state {
			t.Errorf("job %s: observed state %s, want %s", id, snaps[0].State, state)
		}
		if snaps[0].Finished.IsZero() {
			t.Errorf("job %s: observed snapshot not finalized", id)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d jobs notified, want %d (the hookless job must stay silent)", len(got), len(want))
	}
	if got[okID][0].Value != 7 {
		t.Errorf("ok job observed value %v", got[okID][0].Value)
	}
	if got[panicID][0].Stack == "" {
		t.Error("panicked job observed without stack")
	}
	if a := got[retryID][0].Attempts; a != 2 {
		t.Errorf("retried job observed with %d attempts, want 2", a)
	}
}

// TestObserverSeesQueuedCancellation: a job cancelled before it ever
// runs still produces its one OnDone notification, on the cancelling
// goroutine.
func TestObserverSeesQueuedCancellation(t *testing.T) {
	m := NewManager(1, 8)
	defer m.Close()

	log := newDoneLog()
	opts := SubmitOpts{OnDone: log.record}
	block := make(chan struct{})
	var unblock sync.Once
	release := func() { unblock.Do(func() { close(block) }) }
	defer release() // before m.Close, so a failed check cannot hang the drain
	blocker := func(ctx context.Context) (any, error) { <-block; return nil, nil }
	blockID, err := m.SubmitWith("blocker", blocker, opts)
	if err != nil {
		t.Fatal(err)
	}
	queuedID, err := m.SubmitWith("queued", func(ctx context.Context) (any, error) {
		t.Error("cancelled queued job ran")
		return nil, nil
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if was, ok := m.Cancel(queuedID); !ok || was != Queued {
		t.Fatalf("Cancel(queued) = %v, %v", was, ok)
	}
	// Cancel finalizes a queued job synchronously: the hook has fired
	// by the time it returns.
	if snaps := log.waitFor(t, 0)[queuedID]; len(snaps) != 1 {
		t.Fatalf("%d notifications for the cancelled queued job on Cancel's return, want 1", len(snaps))
	}
	release()
	waitState(t, m, blockID, 5*time.Second)
	waitState(t, m, queuedID, 5*time.Second)

	got := log.waitFor(t, 2)
	snaps := got[queuedID]
	if len(snaps) != 1 {
		t.Fatalf("%d notifications for the cancelled queued job, want 1", len(snaps))
	}
	if snaps[0].State != Cancelled {
		t.Errorf("queued job observed as %s", snaps[0].State)
	}
	if !snaps[0].Started.IsZero() {
		t.Error("cancelled queued job has a start time")
	}
	if len(got[blockID]) != 1 {
		t.Errorf("blocker: %d notifications, want 1", len(got[blockID]))
	}
}
