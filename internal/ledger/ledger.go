// Package ledger is the durable run ledger: an append-only JSONL
// journal under the daemon's -data-dir recording one Record per
// completed job and sweep — resolved spec, content-addressed spec hash,
// seed, build revision, timings, sample counts, retry/panic outcomes,
// importance-sampling diagnostics, the finished span tree and any
// captured profiles. It is the evidence behind the reproduction's
// determinism claims: byte-identity contracts (sharded ≡ serial,
// K-retried ≡ fault-free) are only auditable if what ran, with which
// spec hash and which seed, survives the process.
//
// # Durability model
//
// The journal is an internal/jsonlog file: Append marshals a record to
// one JSON line, writes and fsyncs it before indexing it, so a record
// acknowledged in memory is on disk. Open replays the journal on boot
// into an in-memory index; the torn-tail and interior-corruption
// policy is jsonlog's, shared with the cluster shard journal.
// Replayed records are byte-identical to what was appended.
//
// A nil *Ledger is valid and inert: every method is a no-op, so the
// daemon runs with the ledger disabled (no -data-dir) at zero cost and
// call sites never branch.
package ledger

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/ntvsim/ntvsim/internal/buildinfo"
	"github.com/ntvsim/ntvsim/internal/importance"
	"github.com/ntvsim/ntvsim/internal/jsonlog"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// Schema is the record schema tag Append stamps on records that carry
// none. Replay never reads it: every line that unmarshals into a Record
// is indexed, whatever its tag.
const Schema = "ntvsim.run/v1"

// FileName is the journal file created under the data directory.
const FileName = "runs.jsonl"

// Record is one run's provenance: everything needed to audit — or
// byte-identically re-run — a completed job or sweep.
type Record struct {
	Schema string `json:"schema"`
	RunID  string `json:"run_id"`
	Kind   string `json:"kind"` // "job" or "sweep"
	Name   string `json:"name"` // experiment or kernel id

	// SpecHash is the content address of the resolved spec — the same
	// hash the result cache keys on, so a ledger record can be matched
	// to cache entries and to identical future submissions.
	SpecHash string `json:"spec_hash,omitempty"`
	// Spec is the fully resolved spec (normalized experiment config or
	// sweep spec) as submitted to the engine, defaults filled in.
	Spec json.RawMessage `json:"spec,omitempty"`
	Seed uint64          `json:"seed,omitempty"`

	State string `json:"state"` // done | failed | cancelled
	Error string `json:"error,omitempty"`

	Build buildinfo.Info `json:"build"`

	Created    time.Time `json:"created"`
	Started    time.Time `json:"started,omitempty"`
	Finished   time.Time `json:"finished"`
	DurationMS float64   `json:"duration_ms"`

	// Samples counts the Monte-Carlo samples evaluated by the run (for
	// sweeps: the sample budget of computed, non-cached shards).
	Samples int64 `json:"samples,omitempty"`
	// Attempts is the number of Func invocations (> 1 after transient
	// retries); Panicked marks a run finalized by a recovered panic.
	Attempts int  `json:"attempts,omitempty"`
	Panicked bool `json:"panicked,omitempty"`
	// Retries counts in-place shard retries across a sweep; Cached is
	// the number of shards served from the result cache.
	Retries int `json:"retries,omitempty"`
	Cached  int `json:"cached,omitempty"`

	// Mode is the sweep's estimator knob ("mc", "ssta", "auto"); empty
	// for jobs and for sweeps that never set it. Refined counts the
	// grid points of an auto-mode sweep that fell inside the decision
	// band and were confirmed with Monte-Carlo shards.
	Mode    string `json:"mode,omitempty"`
	Refined int    `json:"refined,omitempty"`

	// Workers lists the distinct cluster workers that evaluated shards
	// of this sweep (sorted); empty for jobs and for sweeps executed on
	// the local pool.
	Workers []string `json:"workers,omitempty"`

	// Shards carries per-shard attempt provenance for sweep records.
	Shards []ShardRecord `json:"shards,omitempty"`

	// IS summarizes importance-sampling weight health across the run
	// (merged over shards for sweeps); nil for plain-MC runs.
	IS *importance.Diagnostics `json:"is,omitempty"`

	// Trace is the finished span tree, exportable as Chrome trace-event
	// JSON via GET /debug/trace/{id}?format=chrome.
	Trace *telemetry.TraceSnapshot `json:"trace,omitempty"`

	// Profiles lists pprof files captured for the run, relative to the
	// data directory.
	Profiles []string `json:"profiles,omitempty"`
}

// ShardRecord is one sweep shard's attempt provenance inside a sweep
// Record.
type ShardRecord struct {
	Index   int    `json:"index"`
	Seed    uint64 `json:"seed,omitempty"`
	State   string `json:"state"`
	Cached  bool   `json:"cached,omitempty"`
	Retries int    `json:"retries,omitempty"`
	JobID   string `json:"job_id,omitempty"`
	// Worker attributes a shard evaluated in cluster mode to the worker
	// that uploaded its result; empty for locally executed shards.
	Worker string `json:"worker,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Ledger is the append-only run journal plus its replayed in-memory
// index. All methods are safe for concurrent use and are no-ops on a
// nil receiver.
type Ledger struct {
	mu    sync.Mutex // held across the append and the index update, so order is file order
	log   *jsonlog.Log
	dir   string
	order []string           // run ids in append order (first appearance)
	byID  map[string]*Record // latest record per run id
}

// Open opens (creating if needed) the journal under dir and replays it
// into the in-memory index. A partial final line — the signature of a
// crash mid-append — is discarded and truncated away; any other
// malformed line is an error, because silently skipping interior
// records would hide corruption.
func Open(dir string) (*Ledger, error) {
	l := &Ledger{dir: dir, byID: make(map[string]*Record)}
	log, err := jsonlog.Open(dir, FileName, func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		l.index(&rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l.log = log
	return l, nil
}

// Dir returns the data directory the ledger lives under; "" on a nil
// ledger.
func (l *Ledger) Dir() string {
	if l == nil {
		return ""
	}
	return l.dir
}

// index records rec in the in-memory maps; callers hold l.mu or are
// single-threaded (replay).
func (l *Ledger) index(rec *Record) {
	if _, seen := l.byID[rec.RunID]; !seen {
		l.order = append(l.order, rec.RunID)
	}
	l.byID[rec.RunID] = rec
}

// Append durably appends rec to the journal — write, fsync, then index
// — stamping the schema tag and the binary's build info when unset.
func (l *Ledger) Append(rec Record) error {
	if l == nil {
		return nil
	}
	if rec.Schema == "" {
		rec.Schema = Schema
	}
	if rec.Build == (buildinfo.Info{}) {
		rec.Build = buildinfo.Read()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.Append(line); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.index(&rec)
	return nil
}

// Get returns the record for the given run id.
func (l *Ledger) Get(runID string) (Record, bool) {
	if l == nil {
		return Record{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.byID[runID]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// Query filters a listing. Zero fields match everything.
type Query struct {
	Kind  string // "job" | "sweep"
	State string // done | failed | cancelled
	Name  string // experiment or kernel id
}

// matches reports whether rec satisfies q.
func (q Query) matches(rec *Record) bool {
	return (q.Kind == "" || rec.Kind == q.Kind) &&
		(q.State == "" || rec.State == q.State) &&
		(q.Name == "" || rec.Name == q.Name)
}

// List returns one page of matching records, newest first (reverse
// append order), plus the pre-pagination total. A negative limit means
// no bound.
func (l *Ledger) List(q Query, limit, offset int) ([]Record, int) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	matched := make([]Record, 0, len(l.order))
	for i := len(l.order) - 1; i >= 0; i-- {
		rec := l.byID[l.order[i]]
		if q.matches(rec) {
			matched = append(matched, *rec)
		}
	}
	total := len(matched)
	if offset >= len(matched) {
		return []Record{}, total
	}
	matched = matched[offset:]
	if limit >= 0 && len(matched) > limit {
		matched = matched[:limit]
	}
	return matched, total
}

// Len returns the number of indexed runs.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.byID)
}

// Close syncs and closes the journal file; later Appends fail.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	return l.log.Close()
}
