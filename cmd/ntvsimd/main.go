// Command ntvsimd serves the experiment registry of the DAC 2012
// reproduction over HTTP as an asynchronous job API with sharded
// parameter sweeps, result caching, cancellation and full telemetry:
// per-job progress, SSE event streams, span traces, and Prometheus
// metrics. Errors use a typed envelope with stable codes; see the
// Conventions section of docs/API.md.
//
// Usage:
//
//	ntvsimd [-role standalone|coordinator|worker]
//	        [-addr :8080] [-debug-addr addr] [-workers N] [-queue N] [-cache N]
//	        [-data-dir DIR] [-profile-jobs] [-trace-buffer N]
//	        [-coordinator URL] [-worker-id ID] [-lease-ttl 30s] [-lease-batch N]
//	        [-drain-timeout 30s] [-log-format text|json] [-log-level debug|info|warn|error]
//
// With -data-dir set, every completed job and sweep is appended to a
// durable JSONL run ledger under that directory — resolved spec, spec
// hash, seed, build revision, timings, outcomes, IS diagnostics and the
// finished span tree — replayed on boot and served at GET /v1/runs, so
// provenance survives restarts. -profile-jobs (or the per-submission
// `profile` knob) additionally captures CPU and heap pprof profiles per
// job next to the ledger.
//
// Cluster mode (see docs/CLUSTER.md): with -role coordinator the daemon
// additionally journals every sweep to a durable shard journal under
// -data-dir and fans shards out to pull-based workers over
// /v1/cluster/* — lease, heartbeat, complete — with lease-expiry
// work-stealing; the journal is replayed on boot so a killed
// coordinator resumes interrupted sweeps with uploaded shard results
// intact. With -role worker the daemon runs no HTTP server at all: it
// polls -coordinator for shard leases, evaluates them through the same
// kernel dispatch a local sweep uses, and uploads results until killed.
// The merged result of an N-worker sweep is byte-identical to the same
// spec run serially.
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops accepting
// submissions (new ones get a typed 503 shutting_down envelope and
// /healthz flips to "draining"), lets in-flight jobs finish for up to
// -drain-timeout, then cancels whatever remains and exits. See
// docs/ROBUSTNESS.md for the full lifecycle.
//
// Endpoints (see docs/API.md, docs/SWEEPS.md and docs/OBSERVABILITY.md):
//
//	GET  /v1                       machine-readable surface index (routes, versions, role)
//	GET  /v1/experiments           list experiments (typed; ?format=ids retired in rev 9)
//	POST /v1/jobs                  enqueue an experiment run
//	GET  /v1/jobs                  list jobs (state=, limit=, offset=)
//	GET  /v1/jobs/{id}             job status and result
//	GET  /v1/jobs/{id}/progress    live samples-done/samples-total and phase
//	GET  /v1/jobs/{id}/events      SSE stream of progress/phase/done events
//	POST /v1/jobs/{id}/cancel      cancel a queued or running job
//	POST /v1/sweeps                start a sharded parameter sweep
//	GET  /v1/sweeps                list sweeps, newest first
//	GET  /v1/sweeps/{id}           shard states, partial results, merged result
//	GET  /v1/sweeps/{id}/events    SSE stream of shard progress/done events
//	POST /v1/sweeps/{id}/cancel    cancel every non-terminal shard
//	GET  /v1/runs                  run-ledger listing (kind=, state=, experiment=, limit=, offset=)
//	GET  /v1/runs/{id}             one recorded run: spec, seed, build, shards, trace, profiles
//	GET  /v1/cluster               coordinator status: queue depth, leases, workers
//	POST /v1/cluster/lease         worker shard-lease claim (batch)
//	POST /v1/cluster/heartbeat     worker lease renewal
//	POST /v1/cluster/complete      worker shard-result upload
//	GET  /debug/trace/{id}         span tree of a job or sweep (?format=chrome for Perfetto)
//	GET  /metrics                  Prometheus text exposition
//	GET  /healthz                  liveness probe
//
// With -debug-addr set, net/http/pprof is served on a separate listener
// so profiling never shares the public port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/ntvsim/ntvsim/internal/cluster"
)

// newLogger builds the process logger from the -log-format/-log-level
// flags; structured output goes to stderr.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text|json)", format)
	}
}

func main() {
	role := flag.String("role", "standalone", "process role: standalone, coordinator or worker (see docs/CLUSTER.md)")
	coordinatorURL := flag.String("coordinator", "", "coordinator base URL a worker pulls shard leases from (worker role only)")
	workerID := flag.String("worker-id", "", "stable worker identity for lease attribution (worker role; default hostname-pid)")
	leaseTTL := flag.Duration("lease-ttl", 0, "shard lease time-to-live before the coordinator re-queues it (coordinator role; 0: default 30s)")
	leaseBatch := flag.Int("lease-batch", 2, "max shard leases a worker claims per poll (worker role)")
	addr := flag.String("addr", ":8080", "listen address of the public API")
	debugAddr := flag.String("debug-addr", "", "optional listen address for pprof (empty: disabled)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent experiment jobs")
	queue := flag.Int("queue", 64, "pending-job queue depth")
	cacheSize := flag.Int("cache", 256, "max cached experiment results (0: unbounded)")
	dataDir := flag.String("data-dir", "", "directory for the durable run ledger and job profiles (empty: recording disabled)")
	profileJobs := flag.Bool("profile-jobs", false, "capture CPU and heap pprof profiles for every job (requires -data-dir)")
	traceBuffer := flag.Int("trace-buffer", defaultTraceBuffer, "in-memory span-trace ring capacity")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM/SIGINT drain waits for in-flight jobs before cancelling them")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntvsimd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *profileJobs && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "ntvsimd: -profile-jobs requires -data-dir (profiles are written next to the run ledger)")
		os.Exit(2)
	}
	switch *role {
	case "standalone":
	case "coordinator":
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "ntvsimd: -role coordinator requires -data-dir (the shard journal lives there)")
			os.Exit(2)
		}
	case "worker":
		// A worker is a thin puller with no HTTP surface of its own: it
		// leases shards from the coordinator, evaluates them through the
		// same kernel dispatch a local sweep uses, and uploads results
		// until its context is cancelled.
		if *coordinatorURL == "" {
			fmt.Fprintln(os.Stderr, "ntvsimd: -role worker requires -coordinator URL")
			os.Exit(2)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		w := &cluster.Worker{
			Coordinator: *coordinatorURL,
			ID:          *workerID,
			MaxShards:   *leaseBatch,
			Log:         logger,
		}
		logger.Info("worker starting", "coordinator", *coordinatorURL, "lease_batch", *leaseBatch)
		if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			logger.Error("worker exited", "error", err.Error())
			os.Exit(1)
		}
		logger.Info("worker stopped")
		return
	default:
		fmt.Fprintf(os.Stderr, "ntvsimd: unknown -role %q (standalone|coordinator|worker)\n", *role)
		os.Exit(2)
	}
	s, err := newServerWith(serverConfig{
		workers:     *workers,
		queueDepth:  *queue,
		cacheSize:   *cacheSize,
		traceBuffer: *traceBuffer,
		dataDir:     *dataDir,
		profileJobs: *profileJobs,
		role:        *role,
		leaseTTL:    *leaseTTL,
		logger:      logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ntvsimd: %v\n", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		logger.Info("run ledger enabled", "data_dir", *dataDir, "replayed_runs", s.ledger.Len())
	}
	if s.cluster != nil {
		logger.Info("coordinator serving shard leases", "lease_ttl", s.cluster.LeaseTTL().String(),
			"journal_entries", s.cluster.Status().JournalEntries)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		go func() {
			logger.Info("debug listener starting", "addr", *debugAddr)
			debugSrv := &http.Server{
				Addr:              *debugAddr,
				Handler:           debugMux(),
				ReadHeaderTimeout: 10 * time.Second,
			}
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err.Error())
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Graceful drain: flip /healthz to "draining" and reject new
		// submissions first, then let in-flight jobs finish within the
		// -drain-timeout budget (past it they are cancelled), and only
		// then close the HTTP listener — SSE watchers of draining jobs
		// stay connected until their jobs land.
		logger.Info("drain started", "timeout", drainTimeout.String(),
			"jobs_pending", s.jobs.Pending())
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.drain(drainCtx); err != nil {
			logger.Warn("drain timed out; cancelled remaining jobs", "error", err.Error())
		} else {
			logger.Info("drain complete")
		}
		shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancelShutdown()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	logger.Info("serving", "addr", *addr, "workers", *workers,
		"queue", *queue, "cache", *cacheSize)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener failed", "error", err.Error())
		os.Exit(1)
	}
	stop()
	<-drained // the drain goroutine owns the worker pool's shutdown
	// Jobs have drained, so every record is on disk; seal the shard
	// journal and the run ledger last (close's pool shutdown is a no-op
	// after the drain).
	s.close()
}
