package sweep

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/faults"
	"github.com/ntvsim/ntvsim/internal/jobs"
	"github.com/ntvsim/ntvsim/internal/resultcache"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// Shard-level service metrics, exposed on GET /metrics.
var (
	mShardsTotal = telemetry.Default.Counter("ntvsim_sweep_shards_total",
		"Grid shards created by submitted sweeps.")
	mShardsCompleted = telemetry.Default.Counter("ntvsim_sweep_shards_completed",
		"Sweep shards finished successfully, including cache hits.")
	mShardsCached = telemetry.Default.Counter("ntvsim_sweep_shards_cached",
		"Sweep shards served from the result cache without recomputation.")
	mShardRetries = telemetry.Default.Counter("ntvsim_sweep_shard_retries_total",
		"In-place shard evaluation retries after transient failures or panics.")
)

// State is a sweep's lifecycle state.
type State string

// Sweep lifecycle states. A sweep is Done only when every shard
// completed; any failed shard fails the sweep, and cancellation wins
// over failure.
const (
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// ShardState is one shard's lifecycle state. Cached shards finish as
// ShardDone with Cached set in their snapshot.
type ShardState string

// Shard lifecycle states.
const (
	ShardPending   ShardState = "pending" // not yet handed to the worker pool
	ShardQueued    ShardState = "queued"
	ShardRunning   ShardState = "running"
	ShardDone      ShardState = "done"
	ShardFailed    ShardState = "failed"
	ShardCancelled ShardState = "cancelled"
)

func (s ShardState) terminal() bool {
	return s == ShardDone || s == ShardFailed || s == ShardCancelled
}

// ShardSnapshot is one shard's externally visible state.
type ShardSnapshot struct {
	Index   int        `json:"index"`
	State   ShardState `json:"state"`
	Cached  bool       `json:"cached"`
	Retries int        `json:"retries,omitempty"` // in-place re-evaluations after transient faults
	JobID   string     `json:"job_id,omitempty"`
	// Worker attributes a remotely executed shard to the cluster worker
	// that (last) leased it; empty for locally executed shards.
	Worker string `json:"worker,omitempty"`
	// Restored marks a shard completed from a replayed cluster journal
	// rather than evaluated (or cache-served) in this process.
	Restored bool   `json:"restored,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Snapshot is a point-in-time copy of a sweep's externally visible
// state. Results holds the merged-so-far point outputs in grid order —
// completed shards only — so partial results are visible mid-run.
type Snapshot struct {
	ID        string
	State     State
	Spec      Spec
	Shards    []ShardSnapshot
	Results   []PointResult
	Created   time.Time
	Finished  time.Time // zero until terminal
	Total     int
	Completed int // shards done, including cached
	Cached    int // subset of Completed served from the cache
	Failed    int
	Cancelled int
	Retried   int    // total in-place shard retries across the sweep
	Error     string // first permanent shard failure, set when State is Failed
}

// Engine expands sweeps into shards and runs them on a shared
// internal/jobs worker pool, with shard outputs content-addressed in a
// shared result cache. All methods are safe for concurrent use.
//
// The engine keeps as many finished sweeps as its job manager keeps
// finished jobs (1024 unless the manager was built with another bound),
// through the same FIFO (jobs.Retention): past the bound, the oldest
// finished sweep is evicted and Get no longer knows it. Running sweeps
// are never evicted.
type Engine struct {
	jobs   *jobs.Manager
	cache  *resultcache.Cache[experiments.Result]
	traces *telemetry.TraceStore // optional; shard runs record spans when set

	mu       sync.Mutex
	remote   RemoteQueue // optional; non-cached shards go here instead of the pool
	sweeps   map[string]*Sweep
	order    []string        // submission order, for newest-first listing; may hold evicted ids
	retained *jobs.Retention // finished sweeps, oldest first; evicts past its bound
}

// SetRemote installs a remote shard queue: every subsequently submitted
// sweep's non-cached, non-restored shards are offered to q instead of
// the local worker pool. Install it at boot, before the first Submit —
// a sweep samples the queue once, when its dispatcher starts.
func (e *Engine) SetRemote(q RemoteQueue) {
	e.mu.Lock()
	e.remote = q
	e.mu.Unlock()
}

// remoteQueue returns the installed remote queue, if any.
func (e *Engine) remoteQueue() RemoteQueue {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.remote
}

// NewEngine returns an Engine executing on m and caching shard outputs
// in cache. traces is optional: when non-nil, each sweep records one
// span tree — retrievable by the sweep id — with every shard's spans
// nested under the sweep root, so a wide sweep occupies a single slot
// in the bounded trace ring.
func NewEngine(m *jobs.Manager, cache *resultcache.Cache[experiments.Result], traces *telemetry.TraceStore) *Engine {
	return &Engine{jobs: m, cache: cache, traces: traces, sweeps: make(map[string]*Sweep),
		retained: m.NewRetention()}
}

// Sweep is one submitted sweep's live state.
type Sweep struct {
	ID      string
	eng     *Engine
	spec    Spec // normalized
	points  []Point
	ctx     context.Context
	cancel  context.CancelFunc
	trace   *telemetry.Trace // sweep-rooted span tree; nil without a store
	created time.Time

	mu         sync.Mutex
	state      State
	finished   time.Time
	shards     []shardState
	results    []*ShardResult // grid-indexed; nil until the shard completes
	remaining  int
	completed  int    // done shards, cached ones included
	cached     int    // done shards served from the result cache
	failed     int    // permanently failed shards, checked against the budget
	cancelled  int    // cancelled shards
	failErr    string // first permanent shard failure
	retried    int    // total in-place shard retries
	userCancel bool   // Cancel() was called — wins over failure in the final state
	aborted    bool   // the failure budget tripped and cancelled the rest
	doneCh     chan struct{}
	progress   *telemetry.Progress // done = completed shards, total = grid size

	// restored holds pre-completed shard results replayed from a cluster
	// journal (Engine.Restore); nil on ordinary submissions. Read-only
	// after construction.
	restored map[int]RestoredShard
}

// shardState is one shard's mutable bookkeeping; Sweep.mu guards it.
type shardState struct {
	state    ShardState
	cached   bool
	restored bool
	retries  int
	jobID    string
	worker   string
	err      string
}

// Submit validates and expands spec, registers the sweep and starts its
// dispatcher. Shards begin executing immediately; watch progress via
// Snapshot or wait on Done.
func (e *Engine) Submit(spec Spec) (*Sweep, error) {
	return e.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit with a parent context: cancelling parent cancels
// the sweep, and parent's values — notably a faults.Injector in tests —
// flow into every shard evaluation.
func (e *Engine) SubmitCtx(parent context.Context, spec Spec) (*Sweep, error) {
	return e.submit(parent, spec, newSweepID(), nil)
}

// SubmitWithID is SubmitCtx with a caller-assigned sweep id. The
// cluster coordinator journals the (id, spec) intent durably before the
// engine learns about the sweep, so a crash between the two loses a
// request, never a half-known sweep. The id must be fresh (see NewID);
// a duplicate is rejected.
func (e *Engine) SubmitWithID(parent context.Context, spec Spec, id string) (*Sweep, error) {
	return e.submit(parent, spec, id, nil)
}

// RestoredShard is one journal-replayed shard: the authoritative result
// plus the recorded attribution of the worker that evaluated it, so a
// coordinator restart preserves provenance as well as data.
type RestoredShard struct {
	Result *ShardResult
	Worker string
}

// Restore is SubmitWithID for a sweep replayed from a cluster journal:
// the shards listed in completed (by grid index) finalize immediately
// with their journaled results — marked Restored with their original
// worker attribution, and fed to the result cache — and only the
// remainder is dispatched. A fully completed sweep finalizes without
// evaluating anything, which is what makes a coordinator restart lose
// zero shard results.
func (e *Engine) Restore(parent context.Context, spec Spec, id string, completed map[int]RestoredShard) (*Sweep, error) {
	return e.submit(parent, spec, id, completed)
}

// submit is the shared submission path behind SubmitCtx, SubmitWithID
// and Restore.
func (e *Engine) submit(parent context.Context, spec Spec, id string, restored map[int]RestoredShard) (*Sweep, error) {
	if id == "" {
		return nil, errors.New("sweep: empty sweep id")
	}
	ns, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	points := ns.Grid()
	for idx, rs := range restored {
		if idx < 0 || idx >= len(points) {
			return nil, fmt.Errorf("sweep: restored shard index %d outside grid of %d points", idx, len(points))
		}
		if rs.Result == nil {
			return nil, fmt.Errorf("sweep: restored shard %d has no result", idx)
		}
	}
	ctx, cancel := context.WithCancel(parent)
	// One trace per sweep, keyed by the sweep id: the root span rides the
	// sweep context into every shard job, so shard spans nest under it
	// instead of each shard claiming (and flooding) a ring slot of its
	// own. Finish happens in finalizeLocked.
	var trace *telemetry.Trace
	if e.traces != nil {
		ctx, trace = e.traces.Start(ctx, id)
	}
	sw := &Sweep{
		ID:      id,
		eng:     e,
		trace:   trace,
		spec:    ns,
		points:  points,
		ctx:     ctx,
		cancel:  cancel,
		created: time.Now(),
		state:   Running,
		shards:  make([]shardState, len(points)),
		results: make([]*ShardResult, len(points)),

		remaining: len(points),
		doneCh:    make(chan struct{}),
		progress:  telemetry.NewProgress(),
		restored:  restored,
	}
	for i := range sw.shards {
		sw.shards[i].state = ShardPending
	}
	sw.progress.AddTotal(int64(len(points)))
	e.mu.Lock()
	if _, dup := e.sweeps[sw.ID]; dup {
		e.mu.Unlock()
		sw.trace.Finish() // nil-safe; releases the ring slot claimed above
		cancel()
		return nil, fmt.Errorf("sweep: id %q already in use", sw.ID)
	}
	e.sweeps[sw.ID] = sw
	e.order = append(e.order, sw.ID)
	e.mu.Unlock()
	mShardsTotal.Add(float64(len(points)))
	go sw.dispatch()
	return sw, nil
}

// Get returns the sweep with the given id.
func (e *Engine) Get(id string) (*Sweep, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sw, ok := e.sweeps[id]
	return sw, ok
}

// List returns listing snapshots of the sweeps the engine holds —
// counts, spec and timestamps, without shard states or results —
// newest first.
func (e *Engine) List() []Snapshot {
	e.mu.Lock()
	sweeps := make([]*Sweep, 0, len(e.sweeps))
	for i := len(e.order) - 1; i >= 0; i-- {
		if sw, ok := e.sweeps[e.order[i]]; ok { // evicted ids wait for compaction
			sweeps = append(sweeps, sw)
		}
	}
	e.mu.Unlock()
	out := make([]Snapshot, 0, len(sweeps))
	for _, sw := range sweeps {
		sw.mu.Lock()
		out = append(out, sw.summaryLocked())
		sw.mu.Unlock()
	}
	return out
}

// Retention returns how many sweeps the engine holds — running and
// retained finished ones — and how many finished sweeps it has evicted.
func (e *Engine) Retention() (retained int, evicted uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sweeps), e.retained.Evicted()
}

// retire files a sweep that just finished with the retention FIFO,
// evicting the oldest finished sweep past the bound. The order slice
// drops evicted ids once they make up half of it, so it stays within
// twice the sweeps held at O(1) amortized cost per finish.
func (e *Engine) retire(id string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old, ok := e.retained.Finish(id)
	if !ok {
		return
	}
	delete(e.sweeps, old)
	if len(e.order) <= 2*len(e.sweeps) {
		return
	}
	kept := e.order[:0]
	for _, id := range e.order {
		if _, held := e.sweeps[id]; held {
			kept = append(kept, id)
		}
	}
	clear(e.order[len(kept):])
	e.order = kept
}

// dispatch is the sweep's feeder goroutine: it walks the grid in index
// order, finalizing journal-restored shards first, then serving shards
// from the cache where possible and handing the rest to the remote
// queue (cluster mode) or the local worker pool, retrying with backoff
// while the pool's queue is full.
func (sw *Sweep) dispatch() {
	remote := sw.eng.remoteQueue()
	if remote != nil {
		go sw.watchRemote()
	}
	for idx := range sw.points {
		if sw.ctx.Err() != nil {
			sw.finishShard(idx, ShardCancelled, nil, context.Canceled)
			continue
		}
		pt := sw.points[idx]
		if sw.spec.Mode == ModeAuto {
			// Count decision-band refinements at dispatch, cached or
			// not: the metric tracks how much of the grid the SSTA
			// screen could not resolve, independent of cache luck.
			if m, err := sw.spec.pointMode(pt); err == nil && m != ModeSSTA {
				mAutoRefined.Inc()
			}
		}
		key := keyOf(sw.spec, pt)
		if rs, ok := sw.restored[idx]; ok {
			// A journal-replayed shard: its result is authoritative — the
			// journal was written before the original completion was
			// acknowledged — so finalize without re-evaluating, and feed
			// the cache so identical future sweeps hit it.
			sw.mu.Lock()
			sw.shards[idx].restored = true
			sw.shards[idx].worker = rs.Worker
			sw.mu.Unlock()
			sw.eng.cache.Put(key, rs.Result)
			sw.finishShard(idx, ShardDone, rs.Result, nil)
			continue
		}
		if cached, ok := sw.eng.cache.Get(key); ok {
			if sr, ok := cached.(*ShardResult); ok {
				sw.mu.Lock()
				sw.shards[idx].cached = true
				sw.mu.Unlock()
				mShardsCached.Inc()
				sw.finishShard(idx, ShardDone, sr, nil)
				continue
			}
			// A foreign value under our key: fall through and recompute.
		}
		if remote != nil {
			sw.offerRemote(idx, key, remote)
			continue
		}
		sw.submitShard(idx, key)
	}
}

// submitShard hands one shard to the worker pool, waiting out a full
// queue. The shard's job func performs the evaluation — retrying
// transient failures and contained panics in place — then caches the
// output and finalizes the shard.
func (sw *Sweep) submitShard(idx int, key string) {
	pt := sw.points[idx]
	name := fmt.Sprintf("sweep:%s#%d", sw.ID, idx)
	fn := func(ctx context.Context) (any, error) {
		sw.markRunning(idx)
		sr, err := sw.runShard(ctx, idx, pt)
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			// The shard timeout expired: a permanent failure, not a
			// cancellation — it counts against the failure budget.
			terr := fmt.Errorf("shard timeout: %w", context.DeadlineExceeded)
			sw.finishShard(idx, ShardFailed, nil, terr)
			return nil, terr
		case ctx.Err() != nil:
			sw.finishShard(idx, ShardCancelled, nil, context.Canceled)
			return nil, context.Canceled
		case err != nil:
			sw.finishShard(idx, ShardFailed, nil, err)
			return nil, err
		default:
			sw.eng.cache.Put(key, sr)
			sw.finishShard(idx, ShardDone, sr, nil)
			return sr, nil
		}
	}
	opts := jobs.SubmitOpts{
		// The job context derives from the sweep context, so sweep-level
		// cancellation (user Cancel, failure-budget abort, parent context)
		// reaches a shard even if the per-job Cancel raced its submission
		// — and the fault injector's context values flow through.
		Parent: sw.ctx,
	}
	if sec := sw.spec.ShardTimeoutSec; sec > 0 {
		opts.Deadline = time.Now().Add(time.Duration(sec * float64(time.Second)))
	}
	for {
		id, err := sw.eng.jobs.SubmitWith(name, fn, opts)
		switch {
		case err == nil:
			sw.mu.Lock()
			// The job func may already have run (and finalized the shard)
			// by the time Submit returns; don't regress the state.
			if sw.shards[idx].state == ShardPending {
				sw.shards[idx].state = ShardQueued
			}
			sw.shards[idx].jobID = id
			sw.mu.Unlock()
			if sw.ctx.Err() != nil {
				// Cancel collected the shard job ids before this one was
				// recorded, and a queued job sees its cancelled context
				// only once a worker frees up: cancel it here, or the
				// sweep stays running while the pool is busy.
				if was, ok := sw.eng.jobs.Cancel(id); ok && was == jobs.Queued {
					sw.finishShard(idx, ShardCancelled, nil, context.Canceled)
				}
			}
			return
		case errors.Is(err, jobs.ErrQueueFull):
			select {
			case <-sw.ctx.Done():
				sw.finishShard(idx, ShardCancelled, nil, context.Canceled)
				return
			case <-time.After(5 * time.Millisecond):
			}
		default: // ErrClosed or other terminal submit failure
			sw.finishShard(idx, ShardFailed, nil, err)
			return
		}
	}
}

// markRunning flips a shard to running when its job func starts.
func (sw *Sweep) markRunning(idx int) {
	sw.mu.Lock()
	if !sw.shards[idx].state.terminal() {
		sw.shards[idx].state = ShardRunning
	}
	sw.mu.Unlock()
}

// shardBackoff paces in-place shard retries. Delays are small — a shard
// retry holds a worker slot — and seeded per (sweep seed, shard index)
// so concurrent retries don't thunder in lockstep.
var shardBackoff = jobs.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 0x5eed}

// runShard evaluates one grid point of the sweep under the span
// sweep/<id>/shard/<n>, recording each in-place retry on the shard.
func (sw *Sweep) runShard(ctx context.Context, idx int, pt Point) (*ShardResult, error) {
	return evalWithRetries(ctx, sw.spec, pt, fmt.Sprintf("sweep/%s/shard/%d", sw.ID, idx),
		func() { sw.noteRetry(idx) })
}

// evalWithRetries evaluates pt under a span named span, retrying
// transient failures and contained panics in place up to the
// normalized spec's retry budget, calling onRetry before each retry's
// backoff (seeded by the spec seed plus the point index). Every attempt
// re-evaluates the same Point — same derived seed — so a retried
// shard's output is byte-identical to a first-try one. The in-process
// engine and the cluster worker (EvalShard) both evaluate through it.
func evalWithRetries(ctx context.Context, spec Spec, pt Point, span string, onRetry func()) (*ShardResult, error) {
	for attempt := 1; ; attempt++ {
		var (
			sr  *ShardResult
			err error
		)
		if ferr := faults.Fire(ctx, faults.SiteSweepShard); ferr != nil {
			err = ferr
		} else {
			spanCtx, sp := telemetry.StartSpan(ctx, span)
			sr, err = safeEvalPoint(spanCtx, spec, pt)
			sp.End()
		}
		if err == nil || ctx.Err() != nil || !jobs.IsTransient(err) || attempt > spec.shardRetries() {
			return sr, err
		}
		onRetry()
		if serr := shardBackoff.Sleep(ctx, spec.Seed+uint64(pt.Index), attempt); serr != nil {
			return nil, serr
		}
	}
}

// noteRetry records one in-place retry of the shard at idx.
func (sw *Sweep) noteRetry(idx int) {
	sw.mu.Lock()
	sw.shards[idx].retries++
	sw.retried++
	sw.mu.Unlock()
	mShardRetries.Inc()
}

// panicError is a contained shard-evaluation panic. It classifies as
// transient so the retry loop re-runs the shard — the acceptance story
// of the fault harness: a panicking kernel costs one retry, not the
// daemon.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("shard panic: %v", p.val) }

// Transient marks contained panics retryable (see jobs.IsTransient).
func (p *panicError) Transient() bool { return true }

// Stack returns the goroutine stack captured where the panic happened.
func (p *panicError) Stack() []byte { return p.stack }

// safeEvalPoint is evalPoint with panic containment: a panicking kernel
// is converted into a *panicError carrying the original stack instead
// of unwinding the worker.
func safeEvalPoint(ctx context.Context, spec Spec, pt Point) (sr *ShardResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			var stack []byte
			if s, ok := r.(interface{ Stack() []byte }); ok {
				stack = s.Stack()
			} else {
				stack = debug.Stack()
			}
			sr, err = nil, &panicError{val: r, stack: stack}
		}
	}()
	return evalPoint(ctx, spec, pt)
}

// finishShard records a shard's terminal state exactly once, trips the
// failure budget, and finalizes the sweep when the last shard lands.
func (sw *Sweep) finishShard(idx int, state ShardState, sr *ShardResult, err error) {
	abort := false
	sw.mu.Lock()
	if sw.shards[idx].state.terminal() {
		sw.mu.Unlock()
		return
	}
	sw.shards[idx].state = state
	if err != nil {
		sw.shards[idx].err = err.Error()
	}
	switch state {
	case ShardDone:
		sw.results[idx] = sr
		sw.completed++
		if sw.shards[idx].cached {
			sw.cached++
		}
		mShardsCompleted.Inc()
	case ShardCancelled:
		sw.cancelled++
	case ShardFailed:
		sw.failed++
		if sw.failErr == "" {
			sw.failErr = fmt.Sprintf("shard %d: %v", idx, err)
		}
		if sw.failed > sw.spec.FailureBudget && !sw.aborted {
			sw.aborted = true
			abort = true
		}
	}
	sw.progress.Add(1)
	sw.remaining--
	last := sw.remaining == 0
	if last {
		sw.finalizeLocked()
	}
	sw.mu.Unlock()
	if abort {
		// Fail fast: cancel the sweep context outside the lock so
		// pending shards never run and running ones stop at their next
		// cancellation poll. The sweep still finalizes as Failed (not
		// Cancelled) — see finalizeLocked.
		sw.cancel()
	}
	if last {
		// File the sweep with the engine's retention before announcing
		// it: whoever wakes on Done sees the bound already applied.
		sw.eng.retire(sw.ID)
		close(sw.doneCh)
	}
}

// finalizeLocked computes the sweep's terminal state; callers hold
// sw.mu. Precedence: an explicit user Cancel wins; then any permanent
// shard failure — including a failure-budget abort, whose collateral
// cancelled shards don't mask the cause — fails the sweep; then
// cancellation; else done.
func (sw *Sweep) finalizeLocked() {
	switch {
	case sw.userCancel:
		sw.state = Cancelled
	case sw.failed > 0 || sw.aborted:
		sw.state = Failed
	case sw.cancelled > 0:
		sw.state = Cancelled
	default:
		sw.state = Done
	}
	sw.finished = time.Now()
	sw.trace.Finish() // nil-safe; ends the sweep's root span
	sw.cancel()       // release the context
}

// Cancel requests cancellation of every non-terminal shard: pending
// shards never run, queued shards are withdrawn from the pool, running
// shards stop at their next Monte-Carlo cancellation poll. It reports
// whether the sweep was still cancellable.
func (sw *Sweep) Cancel() bool {
	sw.mu.Lock()
	if sw.state.Terminal() {
		sw.mu.Unlock()
		return false
	}
	sw.userCancel = true // the final state reads Cancelled even if shards failed
	sw.mu.Unlock()

	// Cancel the sweep context first: the dispatcher stops submitting,
	// and already-running shards observe it through their merged
	// contexts even if the per-job Cancel below races.
	sw.cancel()
	sw.mu.Lock()
	jobIDs := make([]string, 0, len(sw.shards))
	for i := range sw.shards {
		if !sw.shards[i].state.terminal() && sw.shards[i].jobID != "" {
			jobIDs = append(jobIDs, sw.shards[i].jobID)
		}
	}
	sw.mu.Unlock()
	for _, id := range jobIDs {
		if was, ok := sw.eng.jobs.Cancel(id); ok && was == jobs.Queued {
			// The job func never runs for a queued job, so finalize its
			// shard here; running shards finalize in their own func.
			if idx, ok := sw.shardIndexByJob(id); ok {
				sw.finishShard(idx, ShardCancelled, nil, context.Canceled)
			}
		}
	}
	return true
}

// shardIndexByJob maps a worker-pool job id back to its shard index.
func (sw *Sweep) shardIndexByJob(jobID string) (int, bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for i := range sw.shards {
		if sw.shards[i].jobID == jobID {
			return i, true
		}
	}
	return 0, false
}

// Cancel cancels the sweep with the given id; it reports whether the
// sweep exists and was still cancellable.
func (e *Engine) Cancel(id string) (bool, bool) {
	sw, ok := e.Get(id)
	if !ok {
		return false, false
	}
	return sw.Cancel(), true
}

// Done returns a channel closed when the sweep reaches a terminal
// state.
func (sw *Sweep) Done() <-chan struct{} { return sw.doneCh }

// Spec returns the sweep's normalized spec.
func (sw *Sweep) Spec() Spec { return sw.spec }

// Progress returns the sweep's shard-completion progress snapshot
// (done = finished shards, total = grid size).
func (sw *Sweep) Progress() telemetry.ProgressSnapshot { return sw.progress.Snapshot() }

// Snapshot returns the sweep's externally visible state, including the
// merged-so-far results of completed shards in grid order.
func (sw *Sweep) Snapshot() Snapshot {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	snap := sw.summaryLocked()
	snap.Shards = make([]ShardSnapshot, len(sw.shards))
	for i := range sw.shards {
		s := &sw.shards[i]
		snap.Shards[i] = ShardSnapshot{
			Index: i, State: s.state, Cached: s.cached, Restored: s.restored,
			Retries: s.retries, JobID: s.jobID, Worker: s.worker, Error: s.err,
		}
	}
	for i, sr := range sw.results {
		if sr != nil {
			snap.Results = append(snap.Results, pointResult(sw.spec, sw.points[i], sr))
		}
	}
	return snap
}

// summaryLocked is the snapshot without shard states or results: what
// a listing shows. Callers hold sw.mu.
func (sw *Sweep) summaryLocked() Snapshot {
	snap := Snapshot{
		ID:        sw.ID,
		State:     sw.state,
		Spec:      sw.spec,
		Created:   sw.created,
		Finished:  sw.finished,
		Total:     len(sw.points),
		Completed: sw.completed,
		Cached:    sw.cached,
		Failed:    sw.failed,
		Cancelled: sw.cancelled,
		Retried:   sw.retried,
	}
	if sw.state == Failed {
		snap.Error = sw.failErr
	}
	return snap
}

// Result returns the merged grid-ordered Result of a Done sweep; it
// reports false while the sweep is unfinished, failed or cancelled.
func (sw *Sweep) Result() (*Result, bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.state != Done {
		return nil, false
	}
	return merge(sw.spec, sw.points, sw.results), true
}

// newSweepID returns a 16-hex-digit random sweep id with a "sw" prefix
// so sweep and job ids are visually distinct in logs and listings.
func newSweepID() string {
	var b [7]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "sw" + hex.EncodeToString([]byte(time.Now().Format("050405.0000000")))[:14]
	}
	return "sw" + hex.EncodeToString(b[:])
}
