package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/ntvsim/ntvsim/internal/buildinfo"
	"github.com/ntvsim/ntvsim/internal/cluster"
	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/jobs"
	"github.com/ntvsim/ntvsim/internal/ledger"
	"github.com/ntvsim/ntvsim/internal/resultcache"
	"github.com/ntvsim/ntvsim/internal/sweep"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// active points at the most recently constructed server; the
// process-global gauges below (Prometheus names are a single namespace)
// read live queue/cache state through it, so rebuilding the server —
// tests do — transparently repoints them.
var active atomic.Pointer[server]

// expDurationBuckets spans HTTP-fast cache hits through multi-minute
// full-depth experiment sweeps.
var expDurationBuckets = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Prometheus metric families with static instruments (labelled series
// created on first use). Gauges reading per-server state are registered
// in init below.
var (
	promExpRuns = telemetry.Default.CounterVec("ntvsimd_experiment_runs_total",
		"Completed experiment runs by experiment id.", "experiment")
	promExpDuration = telemetry.Default.HistogramVec("ntvsimd_experiment_duration_seconds",
		"Wall-clock duration of completed experiment runs.", expDurationBuckets, "experiment")
	promHTTPRequests = telemetry.Default.CounterVec("ntvsimd_http_requests_total",
		"HTTP requests served, by method and status code.", "method", "code")
	promHTTPDuration = telemetry.Default.Histogram("ntvsimd_http_request_duration_seconds",
		"HTTP request latency.", telemetry.DefBuckets)
)

// promBuildInfo is the ntvsim_build_info gauge: always 1, with the
// binary's provenance in its labels so dashboards can join metrics to
// the exact source revision serving them.
var promBuildInfo = telemetry.Default.GaugeVec("ntvsim_build_info",
	"Build provenance of the running binary (value is always 1).",
	"version", "go", "revision")

func init() {
	telemetry.RegisterRuntimeMetrics()
	bi := buildinfo.Read()
	promBuildInfo.With(bi.Version, bi.Go, bi.Revision).Set(1)

	gauge := func(name, help string, fn func(s *server) float64) {
		telemetry.Default.GaugeFunc(name, help, func() float64 {
			if s := active.Load(); s != nil {
				return fn(s)
			}
			return 0
		})
	}
	counter := func(name, help string, fn func(s *server) float64) {
		telemetry.Default.CounterFunc(name, help, func() float64 {
			if s := active.Load(); s != nil {
				return fn(s)
			}
			return 0
		})
	}
	gauge("ntvsimd_jobs_queue_depth", "Submitted jobs waiting for a worker.",
		func(s *server) float64 { return float64(s.jobs.QueueDepth()) })
	gauge("ntvsimd_jobs_running", "Jobs currently executing (busy workers).",
		func(s *server) float64 { return float64(s.jobs.Running()) })
	gauge("ntvsimd_jobs_workers", "Size of the experiment worker pool.",
		func(s *server) float64 { return float64(s.workers) })
	counter("ntvsimd_jobs_started_total", "Jobs that left the queue and started executing.",
		func(s *server) float64 { return float64(s.jobs.Counters().Started) })
	counter("ntvsimd_jobs_completed_total", "Jobs that finished successfully.",
		func(s *server) float64 { return float64(s.jobs.Counters().Completed) })
	counter("ntvsimd_jobs_failed_total", "Jobs that finished with an error.",
		func(s *server) float64 { return float64(s.jobs.Counters().Failed) })
	counter("ntvsimd_jobs_cancelled_total", "Jobs cancelled while queued or running.",
		func(s *server) float64 { return float64(s.jobs.Counters().Cancelled) })
	counter("ntvsimd_cache_hits_total", "Result-cache lookups served without recomputation.",
		func(s *server) float64 { h, _ := s.cache.Stats(); return float64(h) })
	counter("ntvsimd_cache_misses_total", "Result-cache lookups that required a run.",
		func(s *server) float64 { _, m := s.cache.Stats(); return float64(m) })
	counter("ntvsimd_cache_evictions_total", "Result-cache entries pushed out by the LRU bound.",
		func(s *server) float64 { return float64(s.cache.Evictions()) })
	counter("ntvsim_job_panics_total", "Job Funcs that panicked and were recovered by the worker pool.",
		func(s *server) float64 { return float64(s.jobs.Counters().Panics) })
	counter("ntvsim_job_retries_total", "Transient job-attempt failures re-run with backoff.",
		func(s *server) float64 { return float64(s.jobs.Counters().Retries) })
	gauge("ntvsim_jobs_draining", "Jobs still in flight during graceful drain (0 while serving).",
		func(s *server) float64 {
			if s.draining.Load() {
				return float64(s.jobs.Pending())
			}
			return 0
		})
	gauge("ntvsimd_cache_hit_ratio", "hits/(hits+misses) of the result cache since start.",
		func(s *server) float64 { return s.cache.HitRatio() })
	gauge("ntvsimd_cache_entries", "Entries currently held by the result cache.",
		func(s *server) float64 { return float64(s.cache.Len()) })

	retained := telemetry.Default.GaugeVec("ntvsimd_retained",
		"Sweeps and jobs held in memory: queued and running ones plus the newest finished ones the retention bound keeps.", "kind")
	evicted := telemetry.Default.CounterVec("ntvsimd_evicted_total",
		"Finished sweeps and jobs evicted from memory by the retention bound; their run-ledger records stay.", "kind")
	for kind, retention := range map[string]func(s *server) (int, uint64){
		"sweep": func(s *server) (int, uint64) { return s.sweeps.Retention() },
		"job":   func(s *server) (int, uint64) { return s.jobs.Retention() },
	} {
		retained.Func(func() float64 {
			if s := active.Load(); s != nil {
				n, _ := retention(s)
				return float64(n)
			}
			return 0
		}, kind)
		evicted.Func(func() float64 {
			if s := active.Load(); s != nil {
				_, n := retention(s)
				return float64(n)
			}
			return 0
		}, kind)
	}
}

// server wires the experiments registry, the job manager, the sweep
// engine, the result cache, the trace buffer and the run ledger behind
// an HTTP mux.
type server struct {
	jobs    *jobs.Manager
	sweeps  *sweep.Engine
	cache   *resultcache.Cache[experiments.Result]
	traces  *telemetry.TraceStore
	ledger  *ledger.Ledger // nil without -data-dir: recording disabled
	cluster *cluster.Coordinator
	role    string // standalone | coordinator
	log     *slog.Logger
	workers int
	mux     *http.ServeMux
	routes  []route // the registered surface, served by GET /v1

	// profileJobs captures CPU+heap profiles for every job (the
	// -profile-jobs flag); individual submissions opt in via the
	// `profile` knob. Either way profiling needs the ledger's data dir.
	profileJobs bool

	// base is the parent context of every job and sweep; tests thread a
	// faults.Injector through it.
	base context.Context
	// draining flips once at the start of graceful shutdown: submissions
	// are rejected with shutting_down and /healthz reports "draining".
	draining atomic.Bool
}

// serverConfig collects the daemon's construction knobs. The zero value
// of the optional fields means: default trace buffer, no ledger, no
// profiling, discarded logs.
type serverConfig struct {
	workers     int
	queueDepth  int
	cacheSize   int
	traceBuffer int    // trace-ring capacity; 0 means defaultTraceBuffer
	dataDir     string // run-ledger directory; "" disables the ledger
	profileJobs bool   // capture CPU+heap profiles for every job
	role        string // standalone (default) or coordinator
	leaseTTL    time.Duration
	logger      *slog.Logger
	retain      int // finished sweeps and jobs kept in memory each; 0 means the default (tests shrink it)
}

// defaultTraceBuffer is the trace-ring capacity without -trace-buffer.
const defaultTraceBuffer = 256

func newServerWith(cfg serverConfig) (*server, error) {
	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.traceBuffer <= 0 {
		cfg.traceBuffer = defaultTraceBuffer
	}
	var led *ledger.Ledger
	if cfg.dataDir != "" {
		var err error
		if led, err = ledger.Open(cfg.dataDir); err != nil {
			return nil, err
		}
	}
	s := &server{
		jobs:        jobs.NewManagerRetaining(cfg.workers, cfg.queueDepth, cfg.retain),
		cache:       resultcache.New[experiments.Result](cfg.cacheSize),
		traces:      telemetry.NewTraceStore(cfg.traceBuffer),
		ledger:      led,
		log:         logger,
		workers:     cfg.workers,
		profileJobs: cfg.profileJobs,
		mux:         http.NewServeMux(),
		base:        context.Background(),
	}
	s.sweeps = sweep.NewEngine(s.jobs, s.cache, s.traces)
	switch cfg.role {
	case "", "standalone":
		s.role = "standalone"
	case "coordinator":
		s.role = "coordinator"
		if cfg.dataDir == "" {
			s.jobs.Close()
			return nil, errors.New("coordinator role needs -data-dir for the shard journal")
		}
		co, err := cluster.New(cluster.Config{
			DataDir:  cfg.dataDir,
			LeaseTTL: cfg.leaseTTL,
			Log:      logger,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.cluster = co
		s.sweeps.SetRemote(co)
		restored, resumed, err := co.Replay(s.base, s.sweeps)
		if err != nil {
			s.close()
			return nil, err
		}
		if resumed > 0 {
			logger.Info("cluster journal replayed", "resumed_sweeps", resumed)
		}
		// A restored sweep the run ledger holds no record of still owes
		// it one, whether it resumed mid-flight or finished before the
		// crash without being recorded; re-attach the recorder the
		// original boot lost. A recorded sweep is never recorded twice.
		// Walk what Replay restored, not the engine: restored sweeps
		// that finish at once may already be evicted from it.
		if s.ledger != nil {
			for _, sw := range restored {
				if !s.ledger.Has(sw.ID) {
					go s.recordSweep(sw)
				}
			}
		}
	default:
		s.jobs.Close()
		return nil, errors.New("unknown role " + strconv.Quote(cfg.role) + " (one of standalone, coordinator, worker)")
	}
	s.routes = s.routeTable()
	for _, rt := range s.routes {
		s.mux.HandleFunc(rt.method+" "+rt.pattern, rt.h)
	}
	active.Store(s)
	return s, nil
}

// close drains the worker pool, shuts the cluster coordinator (sealing
// the shard journal) and closes the run ledger; used by main on
// shutdown and by tests.
func (s *server) close() {
	s.jobs.Close()
	if s.cluster != nil {
		if err := s.cluster.Close(); err != nil {
			s.log.Warn("cluster close failed", "error", err.Error())
		}
	}
	if err := s.ledger.Close(); err != nil {
		s.log.Warn("ledger close failed", "error", err.Error())
	}
}

// beginDrain flips the server into the draining state: /healthz reports
// "draining" and new job/sweep submissions are rejected with a typed
// shutting_down envelope. In-flight work is untouched — drain finishes
// it.
func (s *server) beginDrain() { s.draining.Store(true) }

// drain stops the worker pool and waits for in-flight jobs to finish;
// when ctx (the -drain-timeout budget) ends first, the remaining jobs
// are cancelled and drain still waits for the workers to observe it.
func (s *server) drain(ctx context.Context) error {
	s.beginDrain()
	return s.jobs.Drain(ctx)
}

// handler wraps the route mux with structured request logging and the
// HTTP request metrics.
func (s *server) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		promHTTPRequests.With(r.Method, strconv.Itoa(rec.status)).Inc()
		promHTTPDuration.Observe(elapsed.Seconds())
		s.log.Info("http request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", float64(elapsed)/float64(time.Millisecond),
			"remote", r.RemoteAddr)
	})
}

// statusRecorder captures the response status for logging and metrics
// while passing Flush through so SSE streaming keeps working.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleMetrics serves the telemetry registry in Prometheus text
// exposition format — the daemon's only metrics surface.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.Default.WritePrometheus(w)
}

// handleRetiredExpvar answers the retired expvar JSON dump with a typed
// envelope naming its replacement (docs/API.md deprecation policy).
func (s *server) handleRetiredExpvar(w http.ResponseWriter, r *http.Request) {
	writeAPIError(w, http.StatusGone, codeEndpointRetired,
		"GET /metrics/expvar was retired in revision 13; read the Prometheus exposition at GET /metrics instead")
}

// debugMux serves net/http/pprof on a separate listener so profiling
// endpoints never share a port with the public API.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// submitRequest is the POST /v1/jobs body. Config follows the
// zero-means-default contract of experiments.Config; Quick fills zero
// fields from the reduced regression configuration instead.
// TimeoutSec bounds the job's whole lifetime (queue wait included);
// MaxRetries re-runs transiently-failed attempts. Both default to off.
// Profile captures CPU and heap pprof profiles of this run next to the
// run ledger (requires -data-dir; see docs/OBSERVABILITY.md).
type submitRequest struct {
	Experiment string             `json:"experiment"`
	Config     experiments.Config `json:"config"`
	Quick      bool               `json:"quick"`
	TimeoutSec float64            `json:"timeout_seconds,omitempty"`
	MaxRetries int                `json:"max_retries,omitempty"`
	Profile    bool               `json:"profile,omitempty"`
}

// jobKey is the content-addressed cache identity of a run: experiment id
// plus fully normalized configuration.
type jobKey struct {
	ID     string             `json:"id"`
	Config experiments.Config `json:"config"`
}

// resultPayload is the wire form of a finished experiment.
type resultPayload struct {
	ID     string `json:"id"`
	Render string `json:"render"`
	Data   any    `json:"data,omitempty"` // structured payload when the result implements JSONer
}

// progressPayload is the wire form of a job's live progress
// (GET /v1/jobs/{id}/progress and the SSE progress events).
type progressPayload struct {
	ID       string     `json:"id,omitempty"`
	State    jobs.State `json:"state"`
	Done     int64      `json:"done"`
	Total    int64      `json:"total"`
	Fraction float64    `json:"fraction"`
	Phase    string     `json:"phase,omitempty"`
}

func progressOf(snap jobs.Snapshot) progressPayload {
	p := snap.Progress
	return progressPayload{
		ID:       snap.ID,
		State:    snap.State,
		Done:     p.Done,
		Total:    p.Total,
		Fraction: p.Fraction(),
		Phase:    p.Phase,
	}
}

// jobPayload is the wire form of a job (POST and GET responses).
// Attempts exceeds 1 only after transient-failure retries; Stack is the
// captured goroutine stack of a recovered panic (single-job GET only —
// listings elide it alongside Result).
type jobPayload struct {
	ID         string           `json:"id,omitempty"`
	Experiment string           `json:"experiment"`
	State      jobs.State       `json:"state"`
	Cached     bool             `json:"cached"`
	Error      string           `json:"error,omitempty"`
	Stack      string           `json:"stack,omitempty"`
	Attempts   int              `json:"attempts,omitempty"`
	CreatedAt  *time.Time       `json:"created_at,omitempty"`
	StartedAt  *time.Time       `json:"started_at,omitempty"`
	FinishedAt *time.Time       `json:"finished_at,omitempty"`
	Progress   *progressPayload `json:"progress,omitempty"`
	Result     *resultPayload   `json:"result,omitempty"`
}

func renderResult(res experiments.Result) *resultPayload {
	p := &resultPayload{ID: res.ID(), Render: res.Render()}
	if j, ok := res.(experiments.JSONer); ok {
		p.Data = j.JSON()
	}
	return p
}

func snapshotPayload(s jobs.Snapshot) jobPayload {
	p := jobPayload{
		ID:         s.ID,
		Experiment: s.Name,
		State:      s.State,
		Error:      s.Error,
		Stack:      s.Stack,
		Attempts:   s.Attempts,
	}
	for _, ts := range []struct {
		t   time.Time
		dst **time.Time
	}{{s.Created, &p.CreatedAt}, {s.Started, &p.StartedAt}, {s.Finished, &p.FinishedAt}} {
		if !ts.t.IsZero() {
			t := ts.t
			*ts.dst = &t
		}
	}
	if s.State == jobs.Running || s.Progress.Total > 0 {
		prog := progressOf(s)
		prog.ID = "" // redundant inside the job payload
		p.Progress = &prog
	}
	if res, ok := s.Value.(experiments.Result); ok && s.State == jobs.Done {
		p.Result = renderResult(res)
	}
	return p
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, healthPayload{
		OK:          status == "ok",
		Status:      status,
		Experiments: len(experiments.IDs()),
		Workers:     s.workers,
		QueueDepth:  s.jobs.QueueDepth(),
		JobsRunning: s.jobs.Running(),
	})
}

// handleExperiments lists the registry as typed objects. The pre-v1
// bare-id listing under ?format=ids, deprecated since revision 4, is
// retired as of revision 9: it now answers a typed deprecated_parameter
// envelope (see docs/API.md deprecation policy).
func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "":
		writeJSON(w, http.StatusOK, map[string]any{"experiments": experiments.List()})
	case "ids":
		writeAPIError(w, http.StatusBadRequest, codeDeprecatedParameter,
			"format=ids was deprecated in v1 revision 4 and retired in revision 9; the default listing carries id fields")
	default:
		writeAPIErrorf(w, http.StatusBadRequest, codeInvalidQuery,
			"unknown format %q (omit the parameter for the typed listing)", format)
	}
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeAPIError(w, http.StatusServiceUnavailable, codeShuttingDown,
			"server is draining; not accepting new jobs")
		return
	}
	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeAPIErrorf(w, http.StatusBadRequest, codeInvalidBody, "invalid JSON body: %v", err)
		return
	}
	if req.TimeoutSec < 0 {
		writeAPIErrorf(w, http.StatusBadRequest, codeInvalidBody,
			"timeout_seconds %g must not be negative", req.TimeoutSec)
		return
	}
	if req.MaxRetries < 0 {
		writeAPIErrorf(w, http.StatusBadRequest, codeInvalidBody,
			"max_retries %d must not be negative", req.MaxRetries)
		return
	}
	if req.Experiment == "" {
		writeAPIError(w, http.StatusBadRequest, codeInvalidBody, "missing \"experiment\" field")
		return
	}
	if req.Profile && s.ledger == nil {
		writeAPIError(w, http.StatusBadRequest, codeProfilingDisabled,
			"per-job profiling needs a profile directory; start ntvsimd with -data-dir")
		return
	}
	if _, ok := experiments.Lookup(req.Experiment); !ok {
		writeAPIErrorf(w, http.StatusBadRequest, codeUnknownExperiment,
			"unknown experiment %q (GET /v1/experiments lists valid ids)", req.Experiment)
		return
	}
	cfg := req.Config
	if req.Quick {
		cfg = fillQuick(cfg)
	}
	cfg, err := cfg.Normalized()
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, codeInvalidConfig, err.Error())
		return
	}

	key := resultcache.Key(jobKey{ID: req.Experiment, Config: cfg})
	if res, ok := s.cache.Get(key); ok {
		s.log.Info("job served from cache", "experiment", req.Experiment)
		writeJSON(w, http.StatusOK, jobPayload{
			Experiment: req.Experiment,
			State:      jobs.Done,
			Cached:     true,
			Result:     renderResult(res),
		})
		return
	}

	opts := jobs.SubmitOpts{Parent: s.base, MaxRetries: req.MaxRetries}
	if req.TimeoutSec > 0 {
		opts.Deadline = time.Now().Add(time.Duration(req.TimeoutSec * float64(time.Second)))
	}
	var profiles *[]string // the job's captured profile paths; nil: no profiling
	if req.Profile || (s.profileJobs && s.ledger != nil) {
		profiles = new([]string)
	}
	if s.ledger != nil {
		opts.OnDone = func(snap jobs.Snapshot) { s.recordJob(snap, req.Experiment, cfg, key, profiles) }
	}
	id, err := s.jobs.SubmitWith(req.Experiment, s.runJob(req.Experiment, cfg, key, profiles), opts)
	if err != nil {
		status, code := http.StatusInternalServerError, codeInternal
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			status, code = http.StatusServiceUnavailable, codeQueueFull
		case errors.Is(err, jobs.ErrClosed):
			status, code = http.StatusServiceUnavailable, codeShuttingDown
		}
		s.log.Warn("job submit rejected", "experiment", req.Experiment, "error", err.Error())
		writeAPIError(w, status, code, err.Error())
		return
	}
	s.log.Info("job submitted", "job", id, "experiment", req.Experiment,
		"queue_depth", s.jobs.QueueDepth())
	writeJSON(w, http.StatusAccepted, jobPayload{
		ID:         id,
		Experiment: req.Experiment,
		State:      jobs.Queued,
	})
}

// runJob builds the worker-pool closure for one experiment run: execute
// under the job's context with a fresh trace, under CPU/heap profiling
// when profiles is non-nil (filing the captured paths there), record
// per-experiment latency, and populate the result cache on success.
func (s *server) runJob(expID string, cfg experiments.Config, key string, profiles *[]string) jobs.Func {
	return func(ctx context.Context) (any, error) {
		jobID := jobs.ContextID(ctx)
		ctx, trace := s.traces.Start(ctx, jobID)
		finishProfiles := func() {}
		if profiles != nil {
			finishProfiles = s.beginJobProfiles(jobID, profiles)
		}
		start := time.Now()
		res, err := experiments.RunCtx(ctx, expID, cfg)
		trace.Finish()
		finishProfiles()
		elapsed := time.Since(start).Seconds()
		logArgs := []any{"job", jobID, "experiment", expID, "seconds", elapsed}
		switch {
		case ctx.Err() != nil:
			s.log.Info("job cancelled", logArgs...)
		case err != nil:
			s.log.Warn("job failed", append(logArgs, "error", err.Error())...)
		default:
			promExpRuns.With(expID).Inc()
			promExpDuration.With(expID).Observe(elapsed)
			s.cache.Put(key, res)
			s.log.Info("job done", logArgs...)
		}
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// handleListJobs serves one page of the job listing, newest first.
// Query parameters: state= filters by lifecycle state; limit= (default
// 50, max 1000) and offset= (default 0) paginate; total counts the
// filtered set before pagination.
func (s *server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q, ok := parseListQuery(w, r)
	if !ok {
		return
	}
	snaps := s.jobs.List()
	if q.state != "" {
		kept := snaps[:0]
		for _, snap := range snaps {
			if snap.State == q.state {
				kept = append(kept, snap)
			}
		}
		snaps = kept
	}
	sortJobsNewestFirst(snaps)
	total := len(snaps)
	snaps = page(snaps, q)
	out := make([]jobPayload, 0, len(snaps))
	for _, snap := range snaps {
		p := snapshotPayload(snap)
		p.Result = nil // keep the listing light; fetch one job for its result
		p.Stack = ""   // panic stacks are multi-KB; fetch one job to see one
		out = append(out, p)
	}
	writeJSON(w, http.StatusOK, jobListPayload{Jobs: out, Total: total, Limit: q.limit, Offset: q.offset})
}

func (s *server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.jobs.Get(id)
	if !ok {
		s.writeMissing(w, "job", id, codeJobNotFound)
		return
	}
	writeJSON(w, http.StatusOK, snapshotPayload(snap))
}

// handleProgress serves the live samples-done/samples-total and phase
// of one job.
func (s *server) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.jobs.Get(id)
	if !ok {
		s.writeMissing(w, "job", id, codeJobNotFound)
		return
	}
	writeJSON(w, http.StatusOK, progressOf(snap))
}

// handleTrace dumps the span tree recorded for one job or sweep.
// Traces of running work report in-progress spans with their duration
// so far; traces evicted from the in-memory ring are served from the
// run ledger when one is configured. ?format=chrome renders the tree as
// Chrome trace-event JSON loadable in Perfetto or chrome://tracing.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var snap telemetry.TraceSnapshot
	if trace, ok := s.traces.Get(id); ok {
		snap = trace.Snapshot()
	} else if rec, ok, err := s.ledger.Get(id); err != nil {
		writeAPIError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	} else if ok && rec.Trace != nil {
		snap = *rec.Trace
	} else {
		if jsnap, ok := s.jobs.Get(id); ok && jsnap.State == jobs.Queued {
			writeAPIError(w, http.StatusNotFound, codeJobNotStarted,
				"job is still queued; its trace begins when it starts running")
			return
		}
		writeAPIError(w, http.StatusNotFound, codeTraceNotFound,
			"no trace recorded under this id (traces exist once a job or sweep starts running)")
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "":
		writeJSON(w, http.StatusOK, snap)
	case "chrome":
		writeJSON(w, http.StatusOK, snap.Chrome())
	default:
		writeAPIErrorf(w, http.StatusBadRequest, codeInvalidQuery,
			"unknown format %q (omit for the span tree, or \"chrome\")", format)
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.jobs.Get(id); !ok {
		s.writeMissing(w, "job", id, codeJobNotFound)
		return
	}
	was, ok := s.jobs.Cancel(id)
	if !ok {
		snap, _ := s.jobs.Get(id)
		writeAPIErrorf(w, http.StatusConflict, codeJobNotCancellable, "job already %s", snap.State)
		return
	}
	s.log.Info("job cancel requested", "job", id, "was", string(was))
	snap, _ := s.jobs.Get(id)
	writeJSON(w, http.StatusOK, snapshotPayload(snap))
}

// fillQuick fills zero Config fields from the reduced regression
// configuration (experiments.Quick) instead of the paper defaults.
func fillQuick(c experiments.Config) experiments.Config {
	q := experiments.Quick()
	if c.Seed == 0 {
		c.Seed = q.Seed
	}
	if c.CircuitSamples == 0 {
		c.CircuitSamples = q.CircuitSamples
	}
	if c.ChipSamples == 0 {
		c.ChipSamples = q.ChipSamples
	}
	if c.SearchSamples == 0 {
		c.SearchSamples = q.SearchSamples
	}
	return c
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
