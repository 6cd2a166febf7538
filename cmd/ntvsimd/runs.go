package main

// Run-ledger wiring: this file connects the durable ledger
// (internal/ledger) to the job manager and the sweep engine, captures
// optional per-job pprof profiles, and serves the recorded provenance
// on GET /v1/runs. Everything here is inert when the daemon runs
// without -data-dir: no job carries an OnDone hook, recordSweep is
// never spawned, and the handlers answer with a typed ledger_disabled
// envelope.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"

	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/importance"
	"github.com/ntvsim/ntvsim/internal/jobs"
	"github.com/ntvsim/ntvsim/internal/ledger"
	"github.com/ntvsim/ntvsim/internal/resultcache"
	"github.com/ntvsim/ntvsim/internal/sweep"
)

// recordJob is an API job's OnDone hook: it appends the job's terminal
// record to the run ledger, joining the outcome in snap to the
// submit-side provenance the handler closed over. profiles is the slot
// the job filed its captured profile paths in (nil: not profiled).
func (s *server) recordJob(snap jobs.Snapshot, expID string, cfg experiments.Config, specHash string, profiles *[]string) {
	spec, err := json.Marshal(cfg)
	if err != nil {
		spec = nil
	}
	rec := ledger.Record{
		RunID:    snap.ID,
		Kind:     "job",
		Name:     expID,
		SpecHash: specHash,
		Spec:     spec,
		Seed:     cfg.Seed,
		State:    string(snap.State),
		Error:    snap.Error,
		Created:  snap.Created,
		Started:  snap.Started,
		Finished: snap.Finished,
		Samples:  snap.Progress.Done,
		Attempts: snap.Attempts,
		Panicked: snap.Stack != "",
	}
	if profiles != nil {
		rec.Profiles = *profiles
	}
	if !snap.Started.IsZero() {
		rec.DurationMS = float64(snap.Finished.Sub(snap.Started).Microseconds()) / 1e3
	}
	if trace, ok := s.traces.Get(snap.ID); ok {
		ts := trace.Snapshot()
		rec.Trace = &ts
	}
	if err := s.ledger.Append(rec); err != nil {
		s.log.Warn("run ledger append failed", "job", snap.ID, "error", err.Error())
	}
}

// sweepName is the id a sweep is recorded and logged under: its metric,
// or the experiment it runs at every point.
func sweepName(spec sweep.Spec) string {
	if spec.Metric != "" {
		return spec.Metric
	}
	return spec.Experiment
}

// recordSweep waits for sw to reach a terminal state, then appends one
// record carrying the whole sweep's provenance — normalized spec and
// its content hash, per-shard states with their derived seeds, merged
// importance-sampling diagnostics, and the sweep-rooted span tree.
func (s *server) recordSweep(sw *sweep.Sweep) {
	<-sw.Done()
	snap := sw.Snapshot()
	spec, err := json.Marshal(snap.Spec)
	if err != nil {
		spec = nil
	}
	rec := ledger.Record{
		RunID:    sw.ID,
		Kind:     "sweep",
		Name:     sweepName(snap.Spec),
		SpecHash: resultcache.Key(snap.Spec),
		Spec:     spec,
		Seed:     snap.Spec.Seed,
		State:    string(snap.State),
		Error:    snap.Error,
		Created:  snap.Created,
		Started:  snap.Created, // shards begin dispatching at submission
		Finished: snap.Finished,
		Retries:  snap.Retried,
		Cached:   snap.Cached,
		Mode:     snap.Spec.Mode,
	}
	if snap.Spec.Mode == sweep.ModeAuto {
		// The mode stamp on each merged point records which side of the
		// decision band it fell on; the refined count is the MC side.
		for i := range snap.Results {
			if snap.Results[i].Mode == sweep.ModeMC {
				rec.Refined++
			}
		}
	}
	rec.DurationMS = float64(snap.Finished.Sub(snap.Created).Microseconds()) / 1e3

	// Shard seeds are re-derived from the spec's grid — the same pure
	// derivation the engine used — so the record pins them without any
	// change to the shard wire format.
	points := snap.Spec.Grid()
	rec.Shards = make([]ledger.ShardRecord, 0, len(snap.Shards))
	workers := map[string]bool{}
	for _, sh := range snap.Shards {
		sr := ledger.ShardRecord{
			Index:   sh.Index,
			State:   string(sh.State),
			Cached:  sh.Cached,
			Retries: sh.Retries,
			JobID:   sh.JobID,
			Worker:  sh.Worker,
			Error:   sh.Error,
		}
		if sh.Worker != "" {
			workers[sh.Worker] = true
		}
		if sh.Index < len(points) {
			sr.Seed = points[sh.Index].Seed
		}
		rec.Shards = append(rec.Shards, sr)
		if sh.State == sweep.ShardDone && !sh.Cached && sh.Index < len(points) {
			rec.Samples += int64(points[sh.Index].Samples)
		}
	}
	if len(workers) > 0 {
		rec.Workers = make([]string, 0, len(workers))
		for w := range workers {
			rec.Workers = append(rec.Workers, w)
		}
		sort.Strings(rec.Workers)
	}
	ds := make([]*importance.Diagnostics, 0, len(snap.Results))
	for i := range snap.Results {
		ds = append(ds, snap.Results[i].IS)
	}
	rec.IS = importance.MergeAll(ds...)
	if trace, ok := s.traces.Get(sw.ID); ok {
		ts := trace.Snapshot()
		rec.Trace = &ts
	}
	if err := s.ledger.Append(rec); err != nil {
		s.log.Warn("run ledger append failed", "sweep", sw.ID, "error", err.Error())
	}
}

// cpuProfileActive serializes per-job CPU profiling: pprof can run only
// one CPU profile per process, so a job that finds the slot busy skips
// the CPU profile (and still writes its heap profile).
var cpuProfileActive atomic.Bool

// beginJobProfiles starts profile capture for one job and returns the
// finish func the job closure calls after the run: it stops the CPU
// profile (when this job held the slot) and writes a post-run heap
// profile, then files the captured paths in dst for the job's ledger
// record. Paths are recorded relative to the data dir.
func (s *server) beginJobProfiles(jobID string, dst *[]string) (finish func()) {
	dir := filepath.Join(s.ledger.Dir(), "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.log.Warn("profile dir creation failed", "error", err.Error())
		return func() {}
	}
	var paths []string
	stopCPU := func() {}
	if cpuProfileActive.CompareAndSwap(false, true) {
		rel := filepath.Join("profiles", jobID+".cpu.pprof")
		f, err := os.Create(filepath.Join(s.ledger.Dir(), rel))
		if err == nil {
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				cpuProfileActive.Store(false)
				s.log.Warn("cpu profile start failed", "job", jobID, "error", err.Error())
			} else {
				stopCPU = func() {
					pprof.StopCPUProfile()
					f.Close()
					cpuProfileActive.Store(false)
					paths = append(paths, rel)
				}
			}
		} else {
			cpuProfileActive.Store(false)
			s.log.Warn("cpu profile create failed", "job", jobID, "error", err.Error())
		}
	} else {
		s.log.Info("cpu profile slot busy; capturing heap only", "job", jobID)
	}
	return func() {
		stopCPU()
		rel := filepath.Join("profiles", jobID+".heap.pprof")
		f, err := os.Create(filepath.Join(s.ledger.Dir(), rel))
		if err != nil {
			s.log.Warn("heap profile create failed", "job", jobID, "error", err.Error())
		} else {
			runtime.GC() // get up-to-date live-object statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				s.log.Warn("heap profile write failed", "job", jobID, "error", err.Error())
			} else {
				paths = append(paths, rel)
			}
			f.Close()
		}
		*dst = paths
	}
}

// runListPayload is the typed GET /v1/runs response: one page of the
// newest-first run listing plus the pre-pagination total. Listing
// entries elide the resolved spec, per-shard detail and the span tree;
// GET /v1/runs/{id} returns the complete record.
type runListPayload struct {
	Runs   []ledger.Record `json:"runs"`
	Total  int             `json:"total"`
	Limit  int             `json:"limit"`
	Offset int             `json:"offset"`
}

// handleListRuns serves one page of the run ledger, newest first.
// Query parameters: kind= (job|sweep), state= (done|failed|cancelled),
// experiment= (experiment or kernel id), limit=, offset=.
func (s *server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeAPIError(w, http.StatusNotFound, codeLedgerDisabled,
			"run ledger disabled; start ntvsimd with -data-dir to record runs")
		return
	}
	q, ok := parseListQuery(w, r)
	if !ok {
		return
	}
	lq := ledger.Query{State: string(q.state), Name: r.URL.Query().Get("experiment")}
	switch kind := r.URL.Query().Get("kind"); kind {
	case "", "job", "sweep":
		lq.Kind = kind
	default:
		writeAPIErrorf(w, http.StatusBadRequest, codeInvalidQuery,
			"unknown kind %q (one of job, sweep)", kind)
		return
	}
	recs, total, err := s.ledger.List(lq, q.limit, q.offset)
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	for i := range recs {
		recs[i].Spec = nil
		recs[i].Shards = nil
		recs[i].Trace = nil
	}
	writeJSON(w, http.StatusOK, runListPayload{
		Runs: recs, Total: total, Limit: q.limit, Offset: q.offset,
	})
}

// handleGetRun serves one complete ledger record, including the
// resolved spec, per-shard provenance and the persisted span tree.
func (s *server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeAPIError(w, http.StatusNotFound, codeLedgerDisabled,
			"run ledger disabled; start ntvsimd with -data-dir to record runs")
		return
	}
	rec, ok, err := s.ledger.Get(r.PathValue("id"))
	switch {
	case err != nil:
		writeAPIError(w, http.StatusInternalServerError, codeInternal, err.Error())
	case !ok:
		writeAPIError(w, http.StatusNotFound, codeRunNotFound, "no recorded run with this id")
	default:
		writeJSON(w, http.StatusOK, rec)
	}
}
