package resultcache

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/ntvsim/ntvsim/internal/experiments"
)

func TestHitMiss(t *testing.T) {
	c := New[string](4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", "alpha")
	v, ok := c.Get("a")
	if !ok || v != "alpha" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if r := c.HitRatio(); r != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", r)
	}
}

func TestHitRatioEmpty(t *testing.T) {
	if r := New[int](1).HitRatio(); r != 0 {
		t.Errorf("hit ratio of untouched cache = %v, want 0", r)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // a is now most recent; b is the eviction candidate
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry a evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if ev := c.Evictions(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestPutReplace(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("a", 2)
	if v, _ := c.Get("a"); v != 2 {
		t.Errorf("replaced value = %d, want 2", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len after replace = %d, want 1", c.Len())
	}
}

// TestKeyContentAddressed asserts the (id, Config) keying contract: two
// separately-constructed but equal configurations address the same
// entry, and any field change addresses a different one.
func TestKeyContentAddressed(t *testing.T) {
	type jobKey struct {
		ID     string             `json:"id"`
		Config experiments.Config `json:"config"`
	}
	a := jobKey{ID: "fig4", Config: experiments.Config{Seed: 1, ChipSamples: 100}}
	b := jobKey{ID: "fig4", Config: experiments.Config{Seed: 1, ChipSamples: 100}}
	if Key(a) != Key(b) {
		t.Error("equal keys hash differently")
	}
	for _, other := range []jobKey{
		{ID: "fig5", Config: a.Config},
		{ID: "fig4", Config: experiments.Config{Seed: 2, ChipSamples: 100}},
		{ID: "fig4", Config: experiments.Config{Seed: 1, ChipSamples: 101}},
	} {
		if Key(a) == Key(other) {
			t.Errorf("distinct key %+v collides with %+v", other, a)
		}
	}
}

// TestSameConfigSameResult stores an experiment result and asserts a
// lookup under an equal (id, Config) key returns a deeply equal value —
// the service-level "identical query, no recomputation" contract.
func TestSameConfigSameResult(t *testing.T) {
	cfg := experiments.Config{Seed: 3, CircuitSamples: 50, ChipSamples: 100, SearchSamples: 50}
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunCtx(context.Background(), "fig2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := New[experiments.Result](8)
	type jobKey struct {
		ID     string
		Config experiments.Config
	}
	c.Put(Key(jobKey{"fig2", norm}), res)

	norm2, err := experiments.Config{Seed: 3, CircuitSamples: 50, ChipSamples: 100, SearchSamples: 50}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(Key(jobKey{"fig2", norm2}))
	if !ok {
		t.Fatal("equal config missed the cache")
	}
	if got.Render() != res.Render() {
		t.Error("cached render differs from stored result")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%64)
				c.Put(k, i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Errorf("bound violated: Len = %d", c.Len())
	}
}
