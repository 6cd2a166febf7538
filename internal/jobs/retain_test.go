package jobs

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestRetentionFIFO(t *testing.T) {
	r := newRetention(3)
	var evicted []string
	for i := 0; i < 8; i++ {
		if old, ok := r.Finish(fmt.Sprint(i)); ok {
			evicted = append(evicted, old)
		}
	}
	if want := []string{"0", "1", "2", "3", "4"}; !slices.Equal(evicted, want) {
		t.Errorf("evicted %v, want the oldest first: %v", evicted, want)
	}
	if r.Evicted() != 5 || len(r.ring) != 3 {
		t.Errorf("Evicted() = %d holding %d, want 5 holding 3", r.Evicted(), len(r.ring))
	}
	if d := newRetention(0); d.bound != retainFinished {
		t.Errorf("default bound %d, want %d", d.bound, retainFinished)
	}
	m := NewManagerRetaining(1, 1, 3)
	defer m.Close()
	if r := m.NewRetention(); r.bound != 3 || len(r.ring) != 0 {
		t.Errorf("Manager.NewRetention: bound %d holding %d, want the manager's 3, empty", r.bound, len(r.ring))
	}
}

// TestManagerEvictsOldestFinished: past the bound the oldest finished
// jobs leave the manager, while a job still running — submitted before
// all of them — stays, and the counts Retention reports follow.
func TestManagerEvictsOldestFinished(t *testing.T) {
	m := NewManagerRetaining(2, 8, 2)
	defer m.Close()
	release := make(chan struct{})
	blocker, err := m.Submit("blocker", func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := m.Submit("quick", func(context.Context) (any, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, id, 5*time.Second)
		ids = append(ids, id)
	}
	for i, id := range ids {
		if _, ok := m.Get(id); ok != (i >= 4) {
			t.Errorf("job %d of 6 held=%v, want only the newest 2 finished jobs held", i, ok)
		}
	}
	if s, ok := m.Get(blocker); !ok || s.State != Running {
		t.Fatalf("running job evicted or not running: ok=%v state=%v", ok, s.State)
	}
	if held, evicted := m.Retention(); held != 3 || evicted != 4 {
		t.Errorf("Retention() = %d held, %d evicted; want 3, 4", held, evicted)
	}
	if n := len(m.List()); n != 3 {
		t.Errorf("List has %d jobs, want 3", n)
	}
	close(release)
	waitState(t, m, blocker, 5*time.Second)
	if _, ok := m.Get(ids[4]); ok {
		t.Error("the blocker finishing did not evict the oldest finished job")
	}
}

// TestFinishedJobReleasesWork: a job that finished — or was cancelled
// while queued — no longer pins what its Func and completion hook
// captured, while the manager still lists it. A sweep shard's Func
// captures its whole sweep, so a retained shard job would otherwise pin
// the sweep after the engine dropped it.
func TestFinishedJobReleasesWork(t *testing.T) {
	m := NewManager(1, 4)
	defer m.Close()
	release := make(chan struct{})
	blocker, err := m.Submit("blocker", func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan string, 2)
	submit := func(name string) string {
		sentinel := new([1 << 10]byte)
		runtime.SetFinalizer(sentinel, func(*[1 << 10]byte) { freed <- name })
		id, err := m.SubmitWith(name, func(context.Context) (any, error) {
			return int(sentinel[0]), nil
		}, SubmitOpts{OnDone: func(Snapshot) { _ = sentinel[1] }})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	finished, queued := submit("finished"), submit("queued")
	if _, ok := m.Cancel(queued); !ok {
		t.Fatal("queued job not cancellable")
	}
	close(release)
	waitState(t, m, blocker, 5*time.Second)
	waitState(t, m, finished, 5*time.Second)

	got := map[string]bool{}
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < 2 && time.Now().Before(deadline) {
		runtime.GC()
		select {
		case name := <-freed:
			got[name] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	for _, name := range []string{"finished", "queued"} {
		if !got[name] {
			t.Errorf("the %s job still pins its Func's captures after a GC", name)
		}
	}
	for _, id := range []string{finished, queued} {
		if s, ok := m.Get(id); !ok || !s.State.Terminal() {
			t.Errorf("job %s not listed as terminal (ok=%v): the test wants it retained", id, ok)
		}
	}
}
