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
// # Memory
//
// The index holds no records: per run it keeps the byte offset of the
// run's latest line plus the three fields List filters on (kind, state,
// name — one shared copy per distinct triple), about a hundred bytes a
// run. Get and each page of
// List read their records back from the journal, so a daemon that
// records every run for months does not grow with the records' specs,
// shards and span trees.
//
// A nil *Ledger is valid and inert: every method is a no-op, so the
// daemon runs with the ledger disabled (no -data-dir) at zero cost and
// call sites never branch.
package ledger

import (
	"encoding/json"
	"fmt"
	"strings"
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
	mu      sync.Mutex // held across the append and the index update, so order is file order
	log     *jsonlog.Log
	dir     string
	entries []entry          // one per run id, in first-appearance order
	byID    map[string]int   // run id → its index in entries
	facets  map[facet]*facet // the distinct filter triples entries share
}

// entry is one run's slot in the index: where its latest record starts
// in the journal, and the fields a Query matches on.
type entry struct {
	id  string
	off int64
	*facet
}

// facet is what a Query matches a run on. A few distinct triples cover
// every run, so entries point at one shared copy each.
type facet struct{ kind, state, name string }

// Open opens (creating if needed) the journal under dir and replays it
// into the in-memory index. A partial final line — the signature of a
// crash mid-append — is discarded and truncated away; any other
// malformed line is an error, because silently skipping interior
// records would hide corruption.
func Open(dir string) (*Ledger, error) {
	l := &Ledger{dir: dir, byID: make(map[string]int), facets: make(map[facet]*facet)}
	log, err := jsonlog.Open(dir, FileName, func(off int64, line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		l.index(off, &rec)
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

// index points rec's run id at the record starting at off; callers
// hold l.mu or are single-threaded (replay). Only the id and the shared
// filter triple are kept, never rec itself.
func (l *Ledger) index(off int64, rec *Record) {
	f := facet{rec.Kind, rec.State, rec.Name}
	shared, ok := l.facets[f]
	if !ok {
		shared = &facet{strings.Clone(f.kind), strings.Clone(f.state), strings.Clone(f.name)}
		l.facets[*shared] = shared
	}
	e := entry{off: off, facet: shared}
	if i, seen := l.byID[rec.RunID]; seen {
		e.id = l.entries[i].id
		l.entries[i] = e
		return
	}
	e.id = strings.Clone(rec.RunID)
	l.byID[e.id] = len(l.entries)
	l.entries = append(l.entries, e)
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
	off, err := l.log.Append(line)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	l.index(off, &rec)
	return nil
}

// Has reports whether a record for the given run id is on file, without
// reading it.
func (l *Ledger) Has(runID string) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.byID[runID]
	return ok
}

// Get reads back the latest record for the given run id. ok is false
// when the ledger holds none; err reports a journal that could not be
// read or decoded.
func (l *Ledger) Get(runID string) (rec Record, ok bool, err error) {
	if l == nil {
		return Record{}, false, nil
	}
	l.mu.Lock()
	i, ok := l.byID[runID]
	var off int64
	if ok {
		off = l.entries[i].off
	}
	l.mu.Unlock()
	if !ok {
		return Record{}, false, nil
	}
	rec, err = l.read(off)
	return rec, err == nil, err
}

// read decodes the record starting at off.
func (l *Ledger) read(off int64) (Record, error) {
	var rec Record
	line, err := l.log.ReadLine(off)
	if err == nil {
		err = json.Unmarshal(line, &rec)
	}
	if err != nil {
		return Record{}, fmt.Errorf("ledger: %w", err)
	}
	return rec, nil
}

// Query filters a listing. Zero fields match everything.
type Query struct {
	Kind  string // "job" | "sweep"
	State string // done | failed | cancelled
	Name  string // experiment or kernel id
}

// matches reports whether the indexed run e satisfies q.
func (q Query) matches(e *entry) bool {
	return (q.Kind == "" || e.kind == q.Kind) &&
		(q.State == "" || e.state == q.State) &&
		(q.Name == "" || e.name == q.Name)
}

// List returns one page of matching records, newest first (reverse
// append order), plus the pre-pagination total. It filters on the
// index and reads back only the page's records. A negative limit means
// no bound.
func (l *Ledger) List(q Query, limit, offset int) ([]Record, int, error) {
	if l == nil {
		return nil, 0, nil
	}
	var offs []int64
	total := 0
	l.mu.Lock()
	for i := len(l.entries) - 1; i >= 0; i-- {
		e := &l.entries[i]
		if !q.matches(e) {
			continue
		}
		if total >= offset && (limit < 0 || len(offs) < limit) {
			offs = append(offs, e.off)
		}
		total++
	}
	l.mu.Unlock()
	recs := make([]Record, 0, len(offs))
	for _, off := range offs {
		rec, err := l.read(off)
		if err != nil {
			return nil, total, err
		}
		recs = append(recs, rec)
	}
	return recs, total, nil
}

// Len returns the number of indexed runs.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Close syncs and closes the journal file; later Appends fail.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	return l.log.Close()
}
