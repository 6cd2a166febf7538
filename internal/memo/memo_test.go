package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentGetOneValuePerKey hammers a few keys from many
// goroutines whose builds all return fresh pointers: whichever build
// wins, every caller of a key must get the same pointer back.
func TestConcurrentGetOneValuePerKey(t *testing.T) {
	m := New[int, *int](64)
	const keys, callers = 4, 32
	got := make([][]*int, keys)
	for k := range got {
		got[k] = make([]*int, callers)
	}
	var builds atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		for k := 0; k < keys; k++ {
			wg.Add(1)
			go func(k, c int) {
				defer wg.Done()
				v, err := m.Get(k, func() (*int, error) {
					builds.Add(1)
					time.Sleep(time.Millisecond) // widen the miss window
					x := k
					return &x, nil
				})
				if err != nil {
					t.Error(err)
				}
				got[k][c] = v
			}(k, c)
		}
	}
	wg.Wait()
	for k := range got {
		for c := range got[k] {
			if got[k][c] != got[k][0] || *got[k][c] != k {
				t.Fatalf("key %d caller %d got %p (%d), caller 0 got %p", k, c, got[k][c], *got[k][c], got[k][0])
			}
		}
	}
	if b := builds.Load(); b < keys {
		t.Errorf("%d builds for %d keys", b, keys)
	}
	// Once every key is resident, lookups never build again.
	before := builds.Load()
	for k := 0; k < keys; k++ {
		v, _ := m.Get(k, func() (*int, error) { builds.Add(1); return new(int), nil })
		if v != got[k][0] {
			t.Errorf("key %d: resident value changed", k)
		}
	}
	if builds.Load() != before {
		t.Error("a resident key was rebuilt")
	}
}

// TestBoundDropsMap: inserting past the bound empties the map, so an
// evicted key is rebuilt on its next lookup.
func TestBoundDropsMap(t *testing.T) {
	m := New[string, int](2)
	builds := map[string]int{}
	get := func(k string) {
		t.Helper()
		if _, err := m.Get(k, func() (int, error) { builds[k]++; return len(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("bb")
	get("a")
	if len(m.m) != 2 || builds["a"] != 1 {
		t.Fatalf("before the bound: %d entries, a built %d times", len(m.m), builds["a"])
	}
	get("ccc") // third key: the map is dropped, then ccc inserted
	if len(m.m) != 1 {
		t.Fatalf("after the bound: %d entries, want 1", len(m.m))
	}
	get("a")
	if builds["a"] != 2 {
		t.Errorf("a built %d times after the drop, want 2", builds["a"])
	}
}

// TestErrorsNotCached: a failed build returns its error and the zero
// value, and the next lookup builds again.
func TestErrorsNotCached(t *testing.T) {
	m := New[int, string](4)
	boom := errors.New("boom")
	calls := 0
	build := func() (string, error) {
		calls++
		if calls == 1 {
			return "partial", boom
		}
		return "ok", nil
	}
	if v, err := m.Get(1, build); !errors.Is(err, boom) || v != "" {
		t.Fatalf("first Get = %q, %v; want \"\", boom", v, err)
	}
	if len(m.m) != 0 {
		t.Fatal("a failed build was cached")
	}
	if v, err := m.Get(1, build); err != nil || v != "ok" {
		t.Fatalf("second Get = %q, %v; want ok", v, err)
	}
	if v, _ := m.Get(1, build); v != "ok" || calls != 2 {
		t.Errorf("third Get = %q after %d builds; want the cached ok after 2", v, calls)
	}
}

// TestNestedGetDoesNotDeadlock: a build may look up another key of the
// same map (builds run outside the lock).
func TestNestedGetDoesNotDeadlock(t *testing.T) {
	m := New[int, int](8)
	done := make(chan int, 1)
	go func() {
		v, _ := m.Get(2, func() (int, error) {
			inner, err := m.Get(1, func() (int, error) { return 10, nil })
			return inner + 1, err
		})
		done <- v
	}()
	select {
	case v := <-done:
		if v != 11 {
			t.Errorf("nested Get = %d, want 11", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested Get deadlocked")
	}
	if v, _ := m.Get(1, func() (int, error) { return -1, nil }); v != 10 {
		t.Errorf("inner key = %d, want the cached 10", v)
	}
}
