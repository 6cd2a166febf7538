// Package jobs runs experiment work asynchronously on a bounded worker
// pool with per-job cancellation, panic isolation, deadlines and
// transient-failure retry.
//
// A Manager owns a fixed number of worker goroutines pulling from a
// bounded queue. Each submitted job carries its own context.Context;
// Cancel propagates through that context into the job's Monte-Carlo
// sampling loops (see internal/montecarlo's Ctx entry points), so a
// cancelled job stops burning CPU within one polling chunk rather than
// running to completion. Jobs move through the states queued → running
// → done/failed/cancelled; a queued job that is cancelled never runs.
//
// The package is deliberately generic — a job is any
// func(context.Context) (any, error) — so it stays decoupled from the
// experiments registry and is reusable for other asynchronous work.
//
// # Fault tolerance
//
// A panicking Func never takes the daemon down: each attempt runs
// under recover(), and a recovered panic finalizes the job as Failed
// with the captured stack in its Snapshot (and ticks the Panics
// counter) while the worker goroutine lives on.
//
// SubmitWith accepts per-job options: a Deadline bounding the job's
// whole lifetime (queue wait, every attempt and every backoff sleep —
// expiry finalizes the job as Failed with context.DeadlineExceeded),
// and MaxRetries re-running a transiently-failed Func with seeded
// exponential backoff plus jitter (see Backoff). An error is transient
// when IsTransient reports so — it implements `Transient() bool`
// truthfully, the convention shared with internal/faults. Panics are
// never retried at this layer: the sweep engine re-runs a panicked
// shard itself, and a plain job's panic is a bug to surface, not mask.
//
// Close drains gracefully forever; Drain drains until a context ends,
// then cancels whatever still runs and waits for the workers to
// observe it. Draining reports whether submissions are shut.
//
// # Retention
//
// A finished job lets go of its Func, context and hooks, keeping only
// what its Snapshot reports, and the manager keeps the newest 1024
// finished jobs: past that, the oldest finished job is evicted and Get
// no longer knows it (see Retention). Queued and running jobs are never
// evicted.
//
// Every job's context carries a telemetry.Progress reporter and the
// job's id (ContextID). Work running under the job — the Monte-Carlo
// loops, via experiments — ticks the reporter, and Snapshot returns the
// current samples-done/samples-total and phase label, which the HTTP
// layer serves as /v1/jobs/{id}/progress and streams over SSE.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"github.com/ntvsim/ntvsim/internal/faults"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle states.
const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Func is the unit of work: it must honor ctx and return promptly once
// ctx is cancelled (typically by returning ctx.Err()).
type Func func(ctx context.Context) (any, error)

// ErrQueueFull is returned by Submit when the pending-job queue is at
// capacity; callers should retry later (the HTTP layer maps it to 503).
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by Submit after Close or Drain began.
var ErrClosed = errors.New("jobs: manager closed")

// transienter is the error self-classification consumed by IsTransient.
// internal/faults.Error implements it; application errors opt in via
// Transient.
type transienter interface{ Transient() bool }

// Transient wraps err so IsTransient reports it retryable. A nil err
// stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

type transientError struct{ err error }

func (t *transientError) Error() string   { return t.err.Error() }
func (t *transientError) Unwrap() error   { return t.err }
func (t *transientError) Transient() bool { return true }

// IsTransient reports whether err declares itself retryable: it (or an
// error in its chain) implements `Transient() bool` returning true.
// Context errors are never transient.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t transienter
	return errors.As(err, &t) && t.Transient()
}

// Backoff is the seeded exponential retry-delay policy: the delay
// before attempt k+1 after k failed attempts is Base·2^(k-1) capped at
// Max, scaled by a jitter factor in [0.5, 1) drawn from the
// (Seed, job-sequence) rng sub-stream. Delays are a pure function of
// (Seed, job sequence, attempt) — reproducible in tests — while
// distinct jobs jitter differently, so synchronized failures don't
// retry in lockstep.
type Backoff struct {
	Base time.Duration // first retry delay; 0 means DefaultBackoff.Base
	Max  time.Duration // delay cap; 0 means DefaultBackoff.Max
	Seed uint64        // jitter stream seed
}

// DefaultBackoff is the retry policy of a new Manager.
var DefaultBackoff = Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Seed: 0x6a0be6}

// Delay returns the backoff before retry number attempt (1-based) of
// the job with the given submission sequence number.
func (b Backoff) Delay(jobSeq uint64, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	base, max := b.Base, b.Max
	if base <= 0 {
		base = DefaultBackoff.Base
	}
	if max <= 0 {
		max = DefaultBackoff.Max
	}
	shift := attempt - 1
	if shift > 30 {
		shift = 30
	}
	d := base << uint(shift)
	if d <= 0 || d > max {
		d = max
	}
	u := rng.NewSub(b.Seed^jobSeq*0x9e3779b97f4a7c15, attempt).Float64()
	return time.Duration((0.5 + 0.5*u) * float64(d))
}

// Sleep blocks for Delay(seq, attempt) or until ctx ends, returning
// ctx's error in that case. It is the context-aware form of the policy
// shared by the sweep engine's in-place shard retries and the cluster
// worker's lease-poll and upload-retry loops.
func (b Backoff) Sleep(ctx context.Context, seq uint64, attempt int) error {
	t := time.NewTimer(b.Delay(seq, attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitOpts tunes one job's execution. The zero value matches plain
// Submit: no deadline, no retries, Background parent.
type SubmitOpts struct {
	// Parent is the context the job's own context derives from; nil
	// means context.Background(). Values flow through (fault-injection
	// hooks, tracing), and cancelling the parent cancels the job — the
	// sweep engine uses this to tie shard jobs to their sweep.
	Parent context.Context
	// Deadline bounds the job's total lifetime: queue wait, every
	// attempt and every backoff sleep. Zero means none. Expiry
	// finalizes the job as Failed with context.DeadlineExceeded.
	Deadline time.Time
	// MaxRetries is how many times a transiently-failed attempt is
	// re-run (total attempts = MaxRetries+1). Non-transient errors,
	// panics and context ends are never retried. Negative means 0.
	MaxRetries int
	// OnDone, when set, is called exactly once with the job's terminal
	// Snapshot after it finalizes, including a queued job cancelled
	// before it ran. It runs outside the manager's lock, so it may call
	// back into the Manager. It runs on the worker (or cancelling)
	// goroutine, so it should be quick or hand off. The run ledger
	// hangs off this hook; the Manager itself stays storage-agnostic.
	OnDone func(Snapshot)
}

// Snapshot is a point-in-time copy of a job's externally visible state.
type Snapshot struct {
	ID       string
	Name     string // free-form label, e.g. the experiment id
	State    State
	Value    any    // result of a Done job
	Error    string // failure or cancellation cause
	Stack    string // captured goroutine stack of a recovered panic
	Attempts int    // Func invocations so far (> 1 after retries)
	Created  time.Time
	Started  time.Time // zero until the job leaves the queue
	Finished time.Time // zero until the job reaches a terminal state
	Deadline time.Time // zero when the job has none

	// Progress is the job's live samples-done/samples-total and phase,
	// ticked by the work running under the job's context.
	Progress telemetry.ProgressSnapshot
}

type job struct {
	id       string
	name     string
	fn       Func
	opts     SubmitOpts
	seq      uint64
	ctx      context.Context
	cancel   context.CancelFunc
	state    State
	value    any
	err      string
	stack    string
	attempts int
	created  time.Time
	started  time.Time
	done     time.Time
	progress *telemetry.Progress
}

// Counters is the manager's cumulative event tally for metrics.
type Counters struct {
	Started, Completed, Failed, Cancelled uint64

	// Panics counts recovered Func panics (each also counts as Failed);
	// Retries counts transient-failure re-runs.
	Panics, Retries uint64
}

// Manager is a bounded worker pool executing jobs. All methods are safe
// for concurrent use.
type Manager struct {
	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job // queued, running and retained finished jobs
	retained *Retention      // finished jobs, oldest first; evicts past its bound
	closed   bool
	seq      uint64
	backoff  Backoff
	counters Counters
	now      func() time.Time // injectable for tests
}

// NewManager starts a pool of workers goroutines with a pending queue of
// depth queueDepth. workers and queueDepth are clamped to at least 1.
func NewManager(workers, queueDepth int) *Manager {
	return NewManagerRetaining(workers, queueDepth, 0)
}

// NewManagerRetaining is NewManager keeping at most retain finished
// jobs; retain < 1 means the default of 1024. Tests shrink the bound
// through it.
func NewManagerRetaining(workers, queueDepth, retain int) *Manager {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	m := &Manager{
		queue:    make(chan *job, queueDepth),
		jobs:     make(map[string]*job),
		retained: newRetention(retain),
		backoff:  DefaultBackoff,
		now:      time.Now,
	}
	m.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go m.worker()
	}
	return m
}

// SetBackoff replaces the retry-delay policy; call it before
// submitting retryable jobs (tests use tiny, seeded delays).
func (m *Manager) SetBackoff(b Backoff) {
	m.mu.Lock()
	m.backoff = b
	m.mu.Unlock()
}

// Submit enqueues fn under the given display name with default options
// and returns the new job's id. It fails fast with ErrQueueFull when
// the queue is at capacity and ErrClosed after Close or Drain.
func (m *Manager) Submit(name string, fn Func) (string, error) {
	return m.SubmitWith(name, fn, SubmitOpts{})
}

// SubmitWith is Submit with per-job options (parent context, deadline,
// retry budget, completion hook).
func (m *Manager) SubmitWith(name string, fn Func, opts SubmitOpts) (string, error) {
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	id := newID()
	progress := telemetry.NewProgress()
	parent := opts.Parent
	if parent == nil {
		parent = context.Background()
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if !opts.Deadline.IsZero() {
		ctx, cancel = context.WithDeadline(parent, opts.Deadline)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	ctx = telemetry.WithProgress(ctx, progress)
	ctx = context.WithValue(ctx, idKey{}, id)
	j := &job{
		id:       id,
		name:     name,
		fn:       fn,
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		state:    Queued,
		progress: progress,
	}
	// The enqueue happens under the same critical section as the closed
	// check: Drain/Close flip closed and close the queue channel under
	// this lock, so a send can never race a close.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return "", ErrClosed
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		cancel()
		return "", ErrQueueFull
	}
	m.seq++
	j.seq = m.seq
	j.created = m.now()
	m.jobs[j.id] = j
	m.mu.Unlock()
	return j.id, nil
}

// Get returns a snapshot of the job with the given id.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// List returns snapshots of every job the manager holds — queued,
// running and retained finished jobs — in unspecified order.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshot())
	}
	return out
}

// Cancel requests cancellation of the job with the given id. A queued
// job is finalized as Cancelled immediately and will never run; a
// running job's context is cancelled and the job finalizes as Cancelled
// once its Func returns (a job sleeping out a retry backoff wakes
// immediately). Cancel reports whether the job exists and was still
// cancellable (not already terminal), along with the state the job was
// in when the cancellation took hold — Queued means it never ran,
// Running means its Func is still draining.
func (m *Manager) Cancel(id string) (State, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || j.state.Terminal() {
		m.mu.Unlock()
		return "", false
	}
	was := j.state
	j.cancel()
	var notify func(Snapshot)
	var snap Snapshot
	if j.state == Queued {
		// The worker that eventually pops this job skips it.
		j.state = Cancelled
		j.err = context.Canceled.Error()
		j.done = m.now()
		m.counters.Cancelled++
		notify, snap = j.opts.OnDone, j.snapshot()
		m.retire(j)
	}
	m.mu.Unlock()
	if notify != nil {
		notify(snap)
	}
	return was, true
}

// CancelAll requests cancellation of every non-terminal job; it
// returns how many jobs it reached.
func (m *Manager) CancelAll() int {
	m.mu.Lock()
	ids := make([]string, 0, len(m.jobs))
	for id, j := range m.jobs {
		if !j.state.Terminal() {
			ids = append(ids, id)
		}
	}
	m.mu.Unlock()
	n := 0
	for _, id := range ids {
		if _, ok := m.Cancel(id); ok {
			n++
		}
	}
	return n
}

// Retention returns how many jobs the manager holds — queued, running
// and retained finished ones — and how many finished jobs it has
// evicted.
func (m *Manager) Retention() (retained int, evicted uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs), m.retained.Evicted()
}

// Counters returns the cumulative job-event counts.
func (m *Manager) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters
}

// Running returns the number of jobs currently executing — i.e. the
// number of busy workers.
func (m *Manager) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if j.state == Running {
			n++
		}
	}
	return n
}

// Pending returns the number of jobs not yet terminal (queued or
// running, including retry backoffs).
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			n++
		}
	}
	return n
}

// QueueDepth returns the number of submitted jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// idKey carries the job id in the job's context.
type idKey struct{}

// ContextID returns the id of the job whose context ctx is (or derives
// from), or "" when ctx does not belong to a job.
func ContextID(ctx context.Context) string {
	id, _ := ctx.Value(idKey{}).(string)
	return id
}

// Close stops accepting submissions, waits for queued and running jobs
// to drain, and releases the workers.
func (m *Manager) Close() { _ = m.Drain(context.Background()) }

// Drain stops accepting submissions and waits for queued and running
// jobs to finish. If ctx ends first, every remaining job is cancelled
// and Drain keeps waiting for the workers to observe the cancellation
// (Funcs must honor their context), then returns ctx's error. A nil
// return means every job completed gracefully.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	m.CancelAll()
	<-done
	return ctx.Err()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.mu.Lock()
		if j.state.Terminal() { // cancelled while queued
			m.mu.Unlock()
			continue
		}
		j.state = Running
		j.started = m.now()
		m.counters.Started++
		m.mu.Unlock()
		m.run(j)
	}
}

// run executes j's Func, re-running transient failures with seeded
// backoff until success, a non-retryable outcome, the retry budget is
// spent, or j's context ends; then finalizes the job exactly once.
func (m *Manager) run(j *job) {
	attempt := 0
	var (
		value any
		err   error
		stack []byte
	)
	for {
		attempt++
		value, err, stack = m.invoke(j)
		if stack != nil || err == nil || j.ctx.Err() != nil ||
			!IsTransient(err) || attempt > j.opts.MaxRetries {
			break
		}
		m.mu.Lock()
		j.attempts = attempt
		m.counters.Retries++
		delay := m.backoff.Delay(j.seq, attempt)
		m.mu.Unlock()
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-j.ctx.Done():
			timer.Stop()
		}
		if j.ctx.Err() != nil {
			break // finalize maps deadline vs cancellation below
		}
	}
	m.finalize(j, value, err, stack, attempt)
}

// invoke runs one attempt of j's Func with panic isolation: a panic is
// captured — value and stack — instead of unwinding the worker
// goroutine. Panic values carrying their own Stack() (re-raised from
// montecarlo's sampling workers) keep the original trace.
func (m *Manager) invoke(j *job) (value any, err error, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			if s, ok := r.(interface{ Stack() []byte }); ok {
				stack = s.Stack()
			} else {
				stack = debug.Stack()
			}
			if len(stack) == 0 {
				stack = []byte("(no stack captured)")
			}
			err = fmt.Errorf("panic: %v", r)
			value = nil
		}
	}()
	if ferr := faults.Fire(j.ctx, faults.SiteJobAttempt); ferr != nil {
		return nil, ferr, nil
	}
	value, err = j.fn(j.ctx)
	return value, err, nil
}

// finalize records j's terminal state. Precedence: a recovered panic
// fails the job (with stack); then a deadline expiry fails it; then any
// other context end cancels it; then a Func error fails it; otherwise
// it is done.
func (m *Manager) finalize(j *job, value any, err error, stack []byte, attempts int) {
	m.mu.Lock()
	j.done = m.now()
	j.attempts = attempts
	ctxErr := j.ctx.Err()
	switch {
	case stack != nil:
		j.state = Failed
		j.err = err.Error()
		j.stack = string(stack)
		m.counters.Panics++
		m.counters.Failed++
	case errors.Is(ctxErr, context.DeadlineExceeded):
		j.state = Failed
		j.err = ctxErr.Error()
		m.counters.Failed++
	case ctxErr != nil || errors.Is(err, context.Canceled):
		j.state = Cancelled
		if cause := context.Cause(j.ctx); cause != nil {
			j.err = cause.Error()
		} else if err != nil {
			j.err = err.Error()
		}
		m.counters.Cancelled++
	case err != nil:
		j.state = Failed
		j.err = err.Error()
		m.counters.Failed++
	default:
		j.state = Done
		j.value = value
		m.counters.Completed++
	}
	notify, snap := j.opts.OnDone, j.snapshot()
	m.retire(j)
	m.mu.Unlock()
	if notify != nil {
		notify(snap)
	}
}

// retire releases a job that just reached a terminal state and files it
// with the retention FIFO, evicting the oldest finished job past the
// bound; callers hold m.mu. Releasing drops the job's Func — a sweep
// shard's Func closes over its whole sweep — with its context and
// hooks, and keeps only what snapshot reads.
func (m *Manager) retire(j *job) {
	j.cancel() // release the context's resources
	j.fn, j.ctx, j.cancel = nil, nil, nil
	j.opts = SubmitOpts{Deadline: j.opts.Deadline}
	if old, ok := m.retained.Finish(j.id); ok {
		delete(m.jobs, old)
	}
}

// snapshot copies the externally visible fields; callers hold m.mu.
func (j *job) snapshot() Snapshot {
	return Snapshot{
		ID:       j.id,
		Name:     j.name,
		State:    j.state,
		Value:    j.value,
		Error:    j.err,
		Stack:    j.stack,
		Attempts: j.attempts,
		Created:  j.created,
		Started:  j.started,
		Finished: j.done,
		Deadline: j.opts.Deadline,
		Progress: j.progress.Snapshot(),
	}
}

// newID returns a 16-hex-digit random job id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived id rather than panicking in a long-lived service.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))[:16]
	}
	return hex.EncodeToString(b[:])
}
