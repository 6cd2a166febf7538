package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"github.com/ntvsim/ntvsim/internal/jobs"
)

// API error codes. Codes are part of the v1 contract: stable snake_case
// identifiers a client can switch on, documented in docs/API.md. The
// human-readable message may change between releases; the code may not.
const (
	codeInvalidBody          = "invalid_body"          // malformed or oversized JSON request body
	codeUnknownExperiment    = "unknown_experiment"    // experiment id not in the registry
	codeInvalidConfig        = "invalid_config"        // config rejected by Normalized
	codeInvalidQuery         = "invalid_query"         // bad query parameter (limit, offset, state, format)
	codeJobNotFound          = "job_not_found"         // no job with that id
	codeJobNotCancellable    = "job_not_cancellable"   // job already terminal
	codeQueueFull            = "queue_full"            // worker pool queue at capacity
	codeShuttingDown         = "shutting_down"         // manager closed, no new submissions
	codeTraceNotFound        = "trace_not_found"       // no span tree recorded for that id
	codeJobNotStarted        = "job_not_started"       // trace requested for a still-queued job
	codeRunNotFound          = "run_not_found"         // no ledger record with that run id
	codeLedgerDisabled       = "ledger_disabled"       // run ledger off: daemon started without -data-dir
	codeProfilingDisabled    = "profiling_disabled"    // profile knob without -data-dir
	codeInvalidSweep         = "invalid_sweep"         // sweep spec rejected by Normalized
	codeModeUnsupported      = "mode_unsupported"      // ssta/auto mode on a metric with no analytic law
	codeKernelRetired        = "kernel_retired"        // retired sweep metric; the message names its replacement
	codeSweepNotFound        = "sweep_not_found"       // no sweep with that id
	codeSweepNotCancellable  = "sweep_not_cancellable" // sweep already terminal
	codeShardFailed          = "shard_failed"          // sweep failed: shard failures exceeded the budget
	codeStreamingUnsupported = "streaming_unsupported" // transport cannot flush SSE
	codeDeprecatedParameter  = "deprecated_parameter"  // retired query parameter (e.g. experiments format=ids)
	codeEndpointRetired      = "endpoint_retired"      // retired route (e.g. GET /metrics/expvar)
	codeEvicted              = "evicted"               // finished job or sweep evicted from memory; the ledger holds its record
	codeInternal             = "internal"              // unexpected server-side failure
)

// apiError is the typed error envelope every non-2xx v1 response wraps
// its diagnosis in: {"error": {"code": "...", "message": "..."}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

// writeAPIError writes the typed error envelope with the given HTTP
// status, stable code and human-readable message.
func writeAPIError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, errorEnvelope{Error: apiError{Code: code, Message: message}})
}

// writeAPIErrorf is writeAPIError with a formatted message.
func writeAPIErrorf(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeAPIError(w, status, code, fmt.Sprintf(format, args...))
}

// writeMissing answers a lookup of a job or sweep id the server does not
// hold. A recorded run was evicted after it finished: 410 evicted, with
// a message naming where its record lives, the way endpoint_retired
// names a replacement route. Any other id is unknown: 404 notFound.
func (s *server) writeMissing(w http.ResponseWriter, kind, id, notFound string) {
	if s.ledger.Has(id) {
		writeAPIErrorf(w, http.StatusGone, codeEvicted,
			"%s %s finished and was evicted from memory; read its record at GET /v1/runs/%s", kind, id, id)
		return
	}
	writeAPIError(w, http.StatusNotFound, notFound, "no such "+kind)
}

// healthPayload is the typed GET /healthz response. Status is the
// server's lifecycle state: "ok" while serving, "draining" between the
// shutdown signal and exit (in-flight jobs finishing, submissions
// rejected with shutting_down). OK is true only in the "ok" state, so
// readiness probes keying on either field agree.
type healthPayload struct {
	OK          bool   `json:"ok"`
	Status      string `json:"status"`
	Experiments int    `json:"experiments"` // registered experiment count
	Workers     int    `json:"workers"`     // worker-pool size
	QueueDepth  int    `json:"queue_depth"` // jobs waiting for a worker
	JobsRunning int    `json:"jobs_running"`
}

// jobListPayload is the typed GET /v1/jobs response: one page of the
// newest-first job listing plus the pre-pagination total.
type jobListPayload struct {
	Jobs   []jobPayload `json:"jobs"`
	Total  int          `json:"total"` // jobs matching the filter, before limit/offset
	Limit  int          `json:"limit"`
	Offset int          `json:"offset"`
}

// defaultJobListLimit is the GET /v1/jobs page size when limit is
// omitted; maxJobListLimit caps an explicit one.
const (
	defaultJobListLimit = 50
	maxJobListLimit     = 1000
)

// listQuery is the parsed pagination/filter query of a listing
// endpoint.
type listQuery struct {
	state  jobs.State // "" = all
	limit  int
	offset int
}

// parseListQuery parses and validates state/limit/offset. An error has
// already been written to w when ok is false.
func parseListQuery(w http.ResponseWriter, r *http.Request) (listQuery, bool) {
	q := listQuery{limit: defaultJobListLimit}
	vals := r.URL.Query()
	if s := vals.Get("state"); s != "" {
		switch st := jobs.State(s); st {
		case jobs.Queued, jobs.Running, jobs.Done, jobs.Failed, jobs.Cancelled:
			q.state = st
		default:
			writeAPIErrorf(w, http.StatusBadRequest, codeInvalidQuery,
				"unknown state %q (one of queued, running, done, failed, cancelled)", s)
			return listQuery{}, false
		}
	}
	if s := vals.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			writeAPIErrorf(w, http.StatusBadRequest, codeInvalidQuery, "limit %q must be a positive integer", s)
			return listQuery{}, false
		}
		q.limit = min(n, maxJobListLimit)
	}
	if s := vals.Get("offset"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeAPIErrorf(w, http.StatusBadRequest, codeInvalidQuery, "offset %q must be a non-negative integer", s)
			return listQuery{}, false
		}
		q.offset = n
	}
	return q, true
}

// sortJobsNewestFirst orders snapshots by creation time descending,
// breaking ties by id so pagination is deterministic.
func sortJobsNewestFirst(snaps []jobs.Snapshot) {
	sort.Slice(snaps, func(i, j int) bool {
		if !snaps[i].Created.Equal(snaps[j].Created) {
			return snaps[i].Created.After(snaps[j].Created)
		}
		return snaps[i].ID < snaps[j].ID
	})
}

// page slices out [offset, offset+limit) of a filtered listing.
func page[T any](items []T, q listQuery) []T {
	if q.offset >= len(items) {
		return []T{}
	}
	items = items[q.offset:]
	if len(items) > q.limit {
		items = items[:q.limit]
	}
	return items
}
