package sweep

import (
	"context"
	"errors"
	"fmt"
)

// RemoteQueue is a sink for shards executed out of process — the
// coordinator side of cluster mode (internal/cluster). When an engine
// has one installed via SetRemote, the dispatcher offers every
// non-cached, non-restored shard to it instead of the local worker
// pool; the queue reports lifecycle through the shard's Start, and
// Finish callbacks as workers pick it up and upload results.
type RemoteQueue interface {
	Offer(*RemoteShard)
}

// RemoteShard is one grid point handed to a RemoteQueue. The Point
// carries the shard's derived seed — a worker evaluates exactly what it
// is given and must not re-derive anything, which is what keeps an
// N-worker sweep byte-identical to RunSerial.
type RemoteShard struct {
	SweepID string
	Index   int
	Spec    Spec  // normalized sweep spec
	Point   Point // includes the per-shard derived seed

	// Ctx is the sweep's context: once it ends the shard is moot and the
	// queue should drop it (calling Finish with context.Canceled is also
	// fine — terminal transitions are exactly-once and idempotent).
	Ctx context.Context

	sw  *Sweep
	key string // content-addressed result-cache key
}

// Start marks the shard running and attributes it to the named worker.
// A re-leased shard may Start more than once; the last worker wins the
// attribution, and a shard that already finished is left untouched.
func (t *RemoteShard) Start(worker string) {
	sw := t.sw
	sw.mu.Lock()
	if !sw.shards[t.Index].state.terminal() {
		sw.shards[t.Index].state = ShardRunning
		sw.shards[t.Index].worker = worker
	}
	sw.mu.Unlock()
}

// NoteRetries records n worker-side in-place evaluation retries against
// the shard, so a sweep's retry provenance covers remote execution too.
func (t *RemoteShard) NoteRetries(n int) {
	for i := 0; i < n; i++ {
		t.sw.noteRetry(t.Index)
	}
}

// Finish reports the shard's terminal outcome: a successful result is
// cached and completes the shard, a context error cancels it, anything
// else fails it permanently (counting against the sweep's failure
// budget). Exactly-once: a late Finish after the shard already reached
// a terminal state — a stolen lease's original worker reporting in —
// is a no-op.
func (t *RemoteShard) Finish(sr *ShardResult, err error) {
	sw := t.sw
	switch {
	case err == nil && sr != nil:
		sw.eng.cache.Put(t.key, sr)
		sw.finishShard(t.Index, ShardDone, sr, nil)
	case errors.Is(err, context.Canceled) || t.Ctx.Err() != nil:
		sw.finishShard(t.Index, ShardCancelled, nil, context.Canceled)
	default:
		if err == nil {
			err = errors.New("sweep: remote shard finished without a result")
		}
		sw.finishShard(t.Index, ShardFailed, nil, err)
	}
}

// offerRemote hands one shard to the remote queue.
func (sw *Sweep) offerRemote(idx int, key string, q RemoteQueue) {
	sw.mu.Lock()
	if !sw.shards[idx].state.terminal() {
		sw.shards[idx].state = ShardQueued
	}
	sw.mu.Unlock()
	q.Offer(&RemoteShard{
		SweepID: sw.ID,
		Index:   idx,
		Spec:    sw.spec,
		Point:   sw.points[idx],
		Ctx:     sw.ctx,
		sw:      sw,
		key:     key,
	})
}

// watchRemote finalizes still-open remote shards as cancelled once the
// sweep context ends. Locally executed shards are finalized by their
// own job funcs; shards handed to a remote queue have no local
// goroutine, so without this a cancelled sweep would wait forever on
// workers that may never report back. The race against a late worker
// completion is harmless: finishShard's terminal check makes whichever
// transition lands second a no-op.
func (sw *Sweep) watchRemote() {
	<-sw.ctx.Done()
	sw.mu.Lock()
	open := make([]int, 0, len(sw.shards))
	for i := range sw.shards {
		if !sw.shards[i].state.terminal() && sw.shards[i].jobID == "" {
			open = append(open, i)
		}
	}
	sw.mu.Unlock()
	for _, idx := range open {
		sw.finishShard(idx, ShardCancelled, nil, context.Canceled)
	}
}

// EvalShard evaluates one grid point exactly as a local shard job would
// — same panic containment, same transient-only in-place retries with
// the seeded shard backoff, same derived Point seed — and returns the
// result plus how many retries were absorbed. It is the worker-side
// evaluation entry point of cluster mode: because it runs the
// in-process engine's retry loop (evalWithRetries), a sweep fanned out
// over N workers merges byte-identical to RunSerial.
func EvalShard(ctx context.Context, spec Spec, pt Point) (*ShardResult, int, error) {
	ns, err := spec.Normalized()
	if err != nil {
		return nil, 0, err
	}
	retried := 0
	sr, err := evalWithRetries(ctx, ns, pt, fmt.Sprintf("cluster/shard/%d", pt.Index), func() { retried++ })
	return sr, retried, err
}

// NewID returns a fresh sweep id. The cluster coordinator assigns ids
// before submission so the id can be journaled ahead of the engine
// learning about the sweep.
func NewID() string { return newSweepID() }
