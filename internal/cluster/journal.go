package cluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/ntvsim/ntvsim/internal/jsonlog"
	"github.com/ntvsim/ntvsim/internal/sweep"
)

// Schema is the journal entry schema tag Append stamps on entries that
// carry none. Replay never reads it: every line that unmarshals into an
// Entry is kept, whatever its tag.
const Schema = "ntvsim.cluster/v1"

// FileName is the shard journal file created under the data directory,
// next to (not shared with) the run ledger's runs.jsonl.
const FileName = "cluster.jsonl"

// Journal entry types.
const (
	// EntrySweep records a sweep's intent — id plus fully normalized
	// spec — written before the engine learns about the sweep.
	EntrySweep = "sweep"
	// EntryShard records one accepted shard result, written (and
	// fsynced) before the completion is acknowledged to the worker or
	// surfaced to the engine — the write-ahead property that makes a
	// coordinator restart lose nothing.
	EntryShard = "shard"
	// EntrySweepDone records a sweep's terminal state. Sweeps without
	// one are resumed on replay.
	EntrySweepDone = "sweep_done"
)

// Entry is one journal line. Type selects which fields are meaningful:
// sweep entries carry Spec, shard entries carry Index/Worker/Result,
// sweep_done entries carry State.
type Entry struct {
	Schema  string `json:"schema"`
	Type    string `json:"type"`
	SweepID string `json:"sweep_id"`

	Spec *sweep.Spec `json:"spec,omitempty"`

	Index  int                `json:"index,omitempty"`
	Worker string             `json:"worker,omitempty"`
	Result *sweep.ShardResult `json:"result,omitempty"`

	State string `json:"state,omitempty"`

	At time.Time `json:"at"`
}

// Journal is the coordinator's append-only shard journal: a JSONL WAL
// under the data directory with the same durability discipline as the
// run ledger, both built on internal/jsonlog. Append writes and fsyncs
// before acknowledging; OpenJournal replays on boot, tolerating a torn
// tail — the signature of a crash mid-write — by truncating it away,
// while interior corruption is fatal because silently skipping records
// would hide lost shard results.
type Journal struct {
	mu      sync.Mutex // held across the append and the entries update, so both keep file order
	log     *jsonlog.Log
	entries []Entry // replayed + appended, in journal order
}

// OpenJournal opens (creating if needed) the shard journal under dir
// and replays it into memory.
func OpenJournal(dir string) (*Journal, error) {
	j := &Journal{}
	log, err := jsonlog.Open(dir, FileName, func(_ int64, line []byte) error {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		j.entries = append(j.entries, e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: journal: %w", err)
	}
	j.log = log
	return j, nil
}

// Append durably appends e — write, fsync, then index — stamping the
// schema tag and timestamp when unset. An entry is only acknowledged
// (nil error) once it is on disk; after Close it fails with
// jsonlog.ErrClosed.
func (j *Journal) Append(e Entry) error {
	if e.Schema == "" {
		e.Schema = Schema
	}
	if e.At.IsZero() {
		e.At = time.Now().UTC()
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("cluster: journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.log.Append(line); err != nil {
		return fmt.Errorf("cluster: journal: %w", err)
	}
	j.entries = append(j.entries, e)
	return nil
}

// Entries returns a copy of every journal entry in order.
func (j *Journal) Entries() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Entry(nil), j.entries...)
}

// Len returns the number of journal entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Close syncs and closes the journal file; subsequent Appends fail.
func (j *Journal) Close() error { return j.log.Close() }
