// Package memo provides the process-wide cache for deterministic
// derived tables: chip-delay laws, moment tables, SRAM die tables and
// analytic kernel values. Each is a pure function of its key and costly
// to rebuild, so building it once per key and sharing it across shards,
// sweeps and datapaths removes repeated work without changing a bit of
// any result.
//
// A Map looks a key up under its lock and builds a missing value
// outside it, so a slow build never blocks lookups of other keys and a
// build may itself consult another Map (or the same one). Concurrent
// misses on one key may build twice; the first insert wins and every
// caller returns that value, so all readers share one table. Build
// errors are returned, never cached. When the map holds its bound it
// drops every entry before inserting: entries are cheap to rebuild, and
// dropping the whole map sheds pathological key churn without per-entry
// bookkeeping.
package memo

import "sync"

// Map is a bounded, concurrency-safe memo from K to V. The zero value
// is not usable; construct one with New.
type Map[K comparable, V any] struct {
	mu    sync.Mutex
	bound int
	m     map[K]V
}

// New returns an empty Map that holds at most bound entries.
func New[K comparable, V any](bound int) *Map[K, V] {
	return &Map[K, V]{bound: bound, m: make(map[K]V)}
}

// Get returns the value cached under key, calling build outside the
// lock to make it on a miss. A build error is returned and nothing is
// cached; a successful build is inserted unless another caller inserted
// the key first, in which case that earlier value is returned instead.
func (c *Map[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	v, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		var zero V
		return zero, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.m[key]; ok {
		return first, nil
	}
	if len(c.m) >= c.bound {
		c.m = make(map[K]V)
	}
	c.m[key] = v
	return v, nil
}
