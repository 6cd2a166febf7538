package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"github.com/ntvsim/ntvsim/internal/sweep"
)

// Config configures a Coordinator.
type Config struct {
	// DataDir is the directory the shard journal lives under; required.
	DataDir string
	// LeaseTTL is how long a granted lease lives without a heartbeat or
	// completion; zero means 30s. Tests use tens of milliseconds.
	LeaseTTL time.Duration
	// Reap is the reclamation scan interval; zero means LeaseTTL/4.
	Reap time.Duration
	// Log is the structured logger; nil discards.
	Log *slog.Logger
}

// DefaultLeaseTTL is the lease lifetime without an explicit Config.
const DefaultLeaseTTL = 30 * time.Second

// ErrLeaseNotFound is returned by Complete and reported by Heartbeat
// for a lease the coordinator no longer holds.
var ErrLeaseNotFound = errors.New("cluster: lease not found")

// errClosed is returned to shards offered after Close.
var errClosed = errors.New("cluster: coordinator closed")

// task is one shard awaiting or under lease.
type task struct {
	shard    *sweep.RemoteShard
	expiries int // leases on this shard that expired; >0 marks a re-grant as a steal
}

// lease is one live shard claim.
type lease struct {
	id      string
	worker  string
	expires time.Time
	t       *task
}

// Coordinator owns the shard queue, the lease table and the journal.
// It implements sweep.RemoteQueue: install it on the engine with
// SetRemote, then Submit sweeps through it so their intent is journaled
// before execution. All methods are safe for concurrent use.
type Coordinator struct {
	journal *Journal
	ttl     time.Duration
	log     *slog.Logger
	// epoch prefixes every lease id and is fresh per boot, so a worker
	// holding leases from before a coordinator restart can never collide
	// with newly issued ids.
	epoch string

	mu      sync.Mutex
	queue   []*task // FIFO; shards awaiting a lease
	leases  map[string]*lease
	workers map[string]time.Time // worker id → last seen
	seq     uint64               // lease id counter within this epoch
	closed  bool

	stop    chan struct{}
	stopped sync.WaitGroup
}

// New opens (or replays) the shard journal under cfg.DataDir and
// starts the lease reaper. Call Replay next to resubmit journaled
// sweeps, and Close when done.
func New(cfg Config) (*Coordinator, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("cluster: coordinator requires a data directory")
	}
	j, err := OpenJournal(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	reap := cfg.Reap
	if reap <= 0 {
		reap = ttl / 4
	}
	logger := cfg.Log
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c := &Coordinator{
		journal: j,
		ttl:     ttl,
		log:     logger,
		epoch:   newEpoch(),
		leases:  make(map[string]*lease),
		workers: make(map[string]time.Time),
		stop:    make(chan struct{}),
	}
	c.stopped.Add(1)
	go c.reaper(reap)
	activeCoordinator.Store(c)
	return c, nil
}

// newEpoch returns a random per-boot lease-id prefix.
func newEpoch() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("ls%x", time.Now().UnixNano()&0xffffffff)
	}
	return "ls" + hex.EncodeToString(b[:])
}

// LeaseTTL returns the configured lease lifetime.
func (c *Coordinator) LeaseTTL() time.Duration { return c.ttl }

// Offer implements sweep.RemoteQueue: the engine hands over one
// non-cached shard, which joins the FIFO lease queue.
func (c *Coordinator) Offer(t *sweep.RemoteShard) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		t.Finish(nil, errClosed)
		return
	}
	c.queue = append(c.queue, &task{shard: t})
	c.mu.Unlock()
}

// Lease grants up to max queued shards to the named worker, skipping —
// and finalizing — shards whose sweeps were cancelled while queued.
// Granted shards are marked running and attributed to the worker.
func (c *Coordinator) Lease(worker string, max int) []Grant {
	if max <= 0 {
		max = 1
	}
	now := time.Now()
	var grants []Grant
	var started, dropped []*sweep.RemoteShard
	steals := 0
	c.mu.Lock()
	c.workers[worker] = now
	for len(grants) < max && len(c.queue) > 0 {
		t := c.queue[0]
		c.queue = c.queue[1:]
		if t.shard.Ctx.Err() != nil {
			dropped = append(dropped, t.shard)
			continue
		}
		c.seq++
		id := fmt.Sprintf("%s-%d", c.epoch, c.seq)
		c.leases[id] = &lease{id: id, worker: worker, expires: now.Add(c.ttl), t: t}
		if t.expiries > 0 {
			steals++
		}
		grants = append(grants, Grant{
			LeaseID: id, SweepID: t.shard.SweepID, Index: t.shard.Index,
			Spec: t.shard.Spec, Point: t.shard.Point,
			TTLMillis: c.ttl.Milliseconds(),
		})
		started = append(started, t.shard)
	}
	c.mu.Unlock()
	for _, sh := range dropped {
		sh.Finish(nil, context.Canceled)
	}
	for _, sh := range started {
		sh.Start(worker)
	}
	if len(grants) > 0 {
		mLeases.Add(float64(len(grants)))
		c.log.Debug("leases granted", "worker", worker, "shards", len(grants))
	}
	if steals > 0 {
		mSteals.Add(float64(steals))
	}
	return grants
}

// Heartbeat renews the named leases for the worker that holds them and
// reports which are lost — expired and possibly executing elsewhere.
func (c *Coordinator) Heartbeat(worker string, ids []string) (renewed, lost []string) {
	now := time.Now()
	c.mu.Lock()
	c.workers[worker] = now
	for _, id := range ids {
		l, ok := c.leases[id]
		if !ok || l.worker != worker {
			lost = append(lost, id)
			continue
		}
		l.expires = now.Add(c.ttl)
		renewed = append(renewed, id)
	}
	c.mu.Unlock()
	return renewed, lost
}

// Complete accepts one shard outcome under a live lease. A successful
// result is journaled — write, fsync — before the lease is released and
// the engine (and thus any client) observes the completion; a journal
// failure keeps the lease so the worker retries the upload. A reported
// permanent error finalizes the shard as failed without journaling (a
// replayed sweep simply re-runs it; deterministic failures repeat,
// transient ones heal).
func (c *Coordinator) Complete(worker, leaseID string, sr *sweep.ShardResult, errMsg string, retries int) error {
	c.mu.Lock()
	c.workers[worker] = time.Now()
	l, ok := c.leases[leaseID]
	if !ok {
		c.mu.Unlock()
		return ErrLeaseNotFound
	}
	sh := l.t.shard
	c.mu.Unlock()

	if errMsg == "" {
		if sr == nil {
			errMsg = "worker reported completion without a result"
		} else if err := c.journal.Append(Entry{
			Type: EntryShard, SweepID: sh.SweepID, Index: sh.Index,
			Worker: worker, Result: sr,
		}); err != nil {
			c.log.Warn("shard journal append failed", "sweep", sh.SweepID, "shard", sh.Index, "error", err.Error())
			return err
		}
	}

	c.mu.Lock()
	delete(c.leases, leaseID)
	c.mu.Unlock()
	if retries > 0 {
		sh.NoteRetries(retries)
	}
	if errMsg != "" {
		mShardsFailed.Inc()
		sh.Finish(nil, errors.New(errMsg))
		return nil
	}
	mCompleted.Inc()
	sh.Finish(sr, nil)
	return nil
}

// reaper periodically reclaims expired leases and drops cancelled
// shards until Close.
func (c *Coordinator) reaper(every time.Duration) {
	defer c.stopped.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.reap(time.Now())
		}
	}
}

// reap reclaims leases expired as of now — their shards rejoin the
// queue for another worker to steal — and finalizes shards whose
// sweeps were cancelled. Split from the ticker loop so tests drive
// expiry deterministically.
func (c *Coordinator) reap(now time.Time) {
	expired := 0
	var dropped []*sweep.RemoteShard
	c.mu.Lock()
	for id, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		delete(c.leases, id)
		l.t.expiries++
		expired++
		if l.t.shard.Ctx.Err() != nil {
			dropped = append(dropped, l.t.shard)
		} else {
			c.queue = append(c.queue, l.t)
		}
	}
	live := c.queue[:0]
	for _, t := range c.queue {
		if t.shard.Ctx.Err() != nil {
			dropped = append(dropped, t.shard)
		} else {
			live = append(live, t)
		}
	}
	c.queue = live
	for w, seen := range c.workers {
		if now.Sub(seen) > 5*c.ttl {
			delete(c.workers, w)
		}
	}
	c.mu.Unlock()
	if expired > 0 {
		mExpiries.Add(float64(expired))
		c.log.Info("leases expired and reclaimed", "count", expired)
	}
	for _, sh := range dropped {
		sh.Finish(nil, context.Canceled)
	}
}

// Submit normalizes spec, durably journals the sweep intent under a
// fresh id, and submits it to eng (whose RemoteQueue must be this
// coordinator). The terminal state is journaled when the sweep
// finishes.
func (c *Coordinator) Submit(ctx context.Context, eng *sweep.Engine, spec sweep.Spec) (*sweep.Sweep, error) {
	ns, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	id := sweep.NewID()
	if err := c.journal.Append(Entry{Type: EntrySweep, SweepID: id, Spec: &ns}); err != nil {
		return nil, err
	}
	sw, err := eng.SubmitWithID(ctx, ns, id)
	if err != nil {
		return nil, err
	}
	go c.watchDone(sw)
	return sw, nil
}

// watchDone journals a sweep's terminal state once it lands.
func (c *Coordinator) watchDone(sw *sweep.Sweep) {
	<-sw.Done()
	state := string(sw.Snapshot().State)
	if err := c.journal.Append(Entry{Type: EntrySweepDone, SweepID: sw.ID, State: state}); err != nil {
		c.log.Warn("sweep_done journal append failed", "sweep", sw.ID, "error", err.Error())
	}
}

// Replay resubmits journaled sweeps to eng: a sweep with no journaled
// terminal state resumes with its completed shards pre-restored (zero
// results lost, none re-evaluated — duplicate shard entries from
// completion races are deduplicated first-write-wins), and a sweep
// that finished Done is restored too so clients keep their ids and
// merged results across a restart. Failed and cancelled sweeps are not
// revived; the run ledger keeps their provenance. Nor is a sweep whose
// kernel was retired after it was journaled (sweep.ErrKernelRetired):
// it can neither resume nor render, so Replay logs a warning and skips
// it rather than refuse to boot. Any other restore error aborts the
// replay. Returns every sweep it restored — the engine may already
// have evicted the finished ones, so this is the caller's one complete
// view of them — and how many of those were interrupted sweeps that
// resumed.
func (c *Coordinator) Replay(ctx context.Context, eng *sweep.Engine) (restored []*sweep.Sweep, resumed int, err error) {
	type journaled struct {
		spec  sweep.Spec
		done  map[int]sweep.RestoredShard
		state string
	}
	var order []string
	byID := make(map[string]*journaled)
	for _, e := range c.journal.Entries() {
		switch e.Type {
		case EntrySweep:
			if e.Spec == nil || byID[e.SweepID] != nil {
				continue
			}
			byID[e.SweepID] = &journaled{spec: *e.Spec, done: make(map[int]sweep.RestoredShard)}
			order = append(order, e.SweepID)
		case EntryShard:
			r := byID[e.SweepID]
			if r == nil || e.Result == nil {
				continue
			}
			if _, dup := r.done[e.Index]; dup {
				continue
			}
			r.done[e.Index] = sweep.RestoredShard{Result: e.Result, Worker: e.Worker}
		case EntrySweepDone:
			if r := byID[e.SweepID]; r != nil {
				r.state = e.State
			}
		}
	}
	for _, id := range order {
		r := byID[id]
		if r.state != "" && r.state != string(sweep.Done) {
			continue
		}
		sw, err := eng.Restore(ctx, r.spec, id, r.done)
		if errors.Is(err, sweep.ErrKernelRetired) {
			c.log.Warn("journaled sweep names a retired kernel; not replayed", "sweep", id, "error", err.Error())
			continue
		}
		if err != nil {
			return restored, resumed, fmt.Errorf("cluster: replay sweep %s: %w", id, err)
		}
		restored = append(restored, sw)
		if r.state == "" {
			// Interrupted mid-run: the remainder re-enters the queue and
			// the terminal state still needs journaling. Finished sweeps
			// skip the watcher so sweep_done is never duplicated.
			resumed++
			go c.watchDone(sw)
		}
		c.log.Info("sweep replayed from journal", "sweep", id,
			"restored_shards", len(r.done), "state", r.state)
	}
	return restored, resumed, nil
}

// Status returns the coordinator's live queue/lease/worker counts.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		ProtocolVersion: ProtocolVersion,
		Queued:          len(c.queue),
		Leased:          len(c.leases),
		Workers:         len(c.workers),
		LeaseTTLMillis:  c.ttl.Milliseconds(),
		JournalEntries:  c.journal.Len(),
	}
}

// depth returns the queued and leased shard counts (metrics gauges).
func (c *Coordinator) depth() (queued, leased int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue), len(c.leases)
}

// workerCount counts workers seen within the last five lease TTLs.
func (c *Coordinator) workerCount(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, seen := range c.workers {
		if now.Sub(seen) <= 5*c.ttl {
			n++
		}
	}
	return n
}

// Close stops the reaper and closes the journal. In-flight sweeps stop
// making progress (workers' completions are rejected once the process
// exits); a restarted coordinator replays them from the journal.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.stopped.Wait()
	return c.journal.Close()
}
