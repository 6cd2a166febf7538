package jobs

// retainFinished is how many finished entries the job manager and the
// sweep engine each keep in memory. Past it, the oldest finished entry
// is evicted; queued and running work never is. The run ledger keeps
// every run's record, so eviction drops no provenance.
const retainFinished = 1024

// Retention is the FIFO of finished ids behind both registries'
// eviction — the job manager's and, through Manager.NewRetention, the
// sweep engine's, so both keep the same number of finished entries. A
// registry calls Finish exactly once per entry, when the entry reaches
// a terminal state, and drops the id Finish hands back. Finish is O(1)
// and the FIFO never holds more than its bound. It is not safe for
// concurrent use: registries call it under their own lock.
type Retention struct {
	bound   int
	ring    []string // finished ids; ring[head] is the oldest once full
	head    int
	evicted uint64
}

// newRetention returns a FIFO keeping the newest bound finished ids;
// bound < 1 means the default of 1024.
func newRetention(bound int) *Retention {
	if bound < 1 {
		bound = retainFinished
	}
	return &Retention{bound: bound}
}

// NewRetention returns an empty FIFO with the manager's bound, for a
// registry layered on the pool — the sweep engine — to evict its own
// finished entries by the same policy.
func (m *Manager) NewRetention() *Retention { return newRetention(m.retained.bound) }

// Finish records id as finished. Once more than the bound have
// finished, it returns the oldest finished id, which leaves the FIFO
// and which the registry must drop.
func (r *Retention) Finish(id string) (evict string, ok bool) {
	if len(r.ring) < r.bound {
		r.ring = append(r.ring, id)
		return "", false
	}
	evict = r.ring[r.head]
	r.ring[r.head] = id
	r.head = (r.head + 1) % r.bound
	r.evicted++
	return evict, true
}

// Evicted returns how many ids Finish has handed back.
func (r *Retention) Evicted() uint64 { return r.evicted }
