package sweep

import (
	"context"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/jobs"
	"github.com/ntvsim/ntvsim/internal/resultcache"
)

// TestEngineEvictsOldestFinished: past the bound the oldest finished
// sweeps leave the engine — Get, List and the order slice forget them —
// while a sweep still running, submitted before most of them, stays.
func TestEngineEvictsOldestFinished(t *testing.T) {
	m := jobs.NewManagerRetaining(1, 8, 2)
	t.Cleanup(m.Close)
	eng := NewEngine(m, resultcache.New[experiments.Result](64), nil)
	spec := Spec{Metric: "gate3sigma", Nodes: []string{"90nm GP"}, Vdd: &VddAxis{From: 0.5, To: 0.5, Step: 0.1}, Samples: []int{50}, Seed: 1}
	submit := func(spec Spec) *Sweep {
		t.Helper()
		sw, err := eng.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	first := submit(spec)
	waitDone(t, first, time.Minute) // fills the cache for the resubmissions below

	// Park the only worker, so a fresh sweep stays running while cached
	// resubmissions finish around it.
	release := make(chan struct{})
	if _, err := m.Submit("blocker", func(context.Context) (any, error) { <-release; return nil, nil }); err != nil {
		t.Fatal(err)
	}
	fresh := spec
	fresh.Seed = 2
	running := submit(fresh)
	ids := []string{first.ID}
	for i := 0; i < 5; i++ {
		sw := submit(spec)
		if snap := waitDone(t, sw, time.Minute); snap.State != Done || snap.Cached != 1 {
			t.Fatalf("resubmission %d: state %s cached %d, want a done cache hit", i, snap.State, snap.Cached)
		}
		ids = append(ids, sw.ID)
	}

	for i, id := range ids {
		if _, ok := eng.Get(id); ok != (i >= 4) {
			t.Errorf("finished sweep %d of 6 held=%v, want only the newest 2 held", i, ok)
		}
	}
	if _, ok := eng.Get(running.ID); !ok {
		t.Fatal("a running sweep was evicted")
	}
	if held, evicted := eng.Retention(); held != 3 || evicted != 4 {
		t.Errorf("Retention() = %d held, %d evicted; want 3, 4", held, evicted)
	}
	if list := eng.List(); len(list) != 3 || list[0].ID != ids[5] || list[1].ID != ids[4] || list[2].ID != running.ID {
		t.Errorf("List has %d sweeps, want the 3 held ones newest first", len(list))
	}
	eng.mu.Lock()
	orderLen, held := len(eng.order), len(eng.sweeps)
	eng.mu.Unlock()
	if orderLen > 2*held {
		t.Errorf("order holds %d ids for %d sweeps: not compacted", orderLen, held)
	}

	close(release)
	waitDone(t, running, time.Minute)
	if _, ok := eng.Get(ids[4]); ok {
		t.Error("the running sweep finishing did not evict the oldest finished one")
	}
	if _, ok := eng.Get(running.ID); !ok {
		t.Error("the sweep that just finished was evicted instead of the oldest")
	}
}
