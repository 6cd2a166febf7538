package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"github.com/ntvsim/ntvsim/internal/sweep"
)

// sweepPayload is the wire form of a sweep (POST and GET responses).
// Results holds the merged-so-far grid points of completed shards, so a
// mid-run GET sees partial results; Result is the fully merged artifact
// of a done sweep.
// Error carries the typed shard_failed envelope of a sweep that failed
// (first permanent shard failure, or the failure-budget abort);
// Retried counts in-place shard retries absorbed along the way.
type sweepPayload struct {
	ID         string                `json:"id"`
	State      sweep.State           `json:"state"`
	Spec       sweep.Spec            `json:"spec"`
	Total      int                   `json:"total"`
	Completed  int                   `json:"completed"`
	Cached     int                   `json:"cached"`
	Failed     int                   `json:"failed,omitempty"`
	Cancelled  int                   `json:"cancelled,omitempty"`
	Retried    int                   `json:"retried,omitempty"`
	Error      *apiError             `json:"error,omitempty"`
	CreatedAt  *time.Time            `json:"created_at,omitempty"`
	FinishedAt *time.Time            `json:"finished_at,omitempty"`
	Shards     []sweep.ShardSnapshot `json:"shards,omitempty"`
	Results    []sweep.PointResult   `json:"results,omitempty"`
	Result     *resultPayload        `json:"result,omitempty"`
}

// sweepListPayload is the typed GET /v1/sweeps response: one page of the
// newest-first listing of the sweeps the server holds, plus the
// pre-pagination total. Listing entries omit shards and point results;
// fetch one sweep for its detail.
type sweepListPayload struct {
	Sweeps []sweepPayload `json:"sweeps"`
	Total  int            `json:"total"`
	Limit  int            `json:"limit"`
	Offset int            `json:"offset"`
}

// sweepDoneEvent is the terminal SSE payload of a sweep stream. Unlike
// the per-job doneEvent's flat error string, a failed sweep carries the
// typed shard_failed envelope so stream consumers and unary clients
// switch on the same code.
type sweepDoneEvent struct {
	ID    string    `json:"id"`
	State string    `json:"state"`
	Error *apiError `json:"error,omitempty"`
}

// sweepProgressPayload is the data of sweep SSE progress events: shard
// completion counts, not Monte-Carlo sample counts.
type sweepProgressPayload struct {
	ID        string      `json:"id"`
	State     sweep.State `json:"state"`
	Total     int         `json:"total"`
	Completed int         `json:"completed"`
	Cached    int         `json:"cached"`
}

// sweepPayloadOf converts a snapshot's counts, spec and timestamps: the
// form listings and the submit response carry.
func sweepPayloadOf(snap sweep.Snapshot) sweepPayload {
	p := sweepPayload{
		ID:        snap.ID,
		State:     snap.State,
		Spec:      snap.Spec,
		Total:     snap.Total,
		Completed: snap.Completed,
		Cached:    snap.Cached,
		Failed:    snap.Failed,
		Cancelled: snap.Cancelled,
		Retried:   snap.Retried,
		Error:     sweepError(snap),
	}
	if !snap.Created.IsZero() {
		t := snap.Created
		p.CreatedAt = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		p.FinishedAt = &t
	}
	return p
}

// sweepDetailOf is the single-sweep form: sweepPayloadOf plus per-shard
// states, the merged-so-far partial results and, once done, the merged
// artifact.
func sweepDetailOf(sw *sweep.Sweep) sweepPayload {
	snap := sw.Snapshot()
	p := sweepPayloadOf(snap)
	p.Shards = snap.Shards
	p.Results = snap.Results
	if res, ok := sw.Result(); ok {
		p.Result = renderResult(res)
	}
	return p
}

// sweepError maps a Failed sweep's recorded failure to the typed
// shard_failed envelope carried by payloads and the SSE done event.
func sweepError(snap sweep.Snapshot) *apiError {
	if snap.State != sweep.Failed {
		return nil
	}
	return &apiError{Code: codeShardFailed, Message: snap.Error}
}

// handleSubmitSweep validates and starts a sweep. Unlike POST /v1/jobs,
// a fully cached resubmission still creates a sweep — its shards all
// finish as cache hits near-instantly and the response reports them in
// the cached count.
func (s *server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeAPIError(w, http.StatusServiceUnavailable, codeShuttingDown,
			"server is draining; not accepting new sweeps")
		return
	}
	var spec sweep.Spec
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		writeAPIErrorf(w, http.StatusBadRequest, codeInvalidBody, "invalid JSON body: %v", err)
		return
	}
	var sw *sweep.Sweep
	var err error
	if s.cluster != nil {
		// Coordinator path: validate first (Normalized is idempotent, so
		// re-normalizing inside Submit is harmless), then journal the
		// sweep intent before shards fan out to workers. A Submit error
		// past validation is a journal write failure — the intent is not
		// durable, so the sweep must not run.
		if _, verr := spec.Normalized(); verr != nil {
			writeSpecError(w, verr)
			return
		}
		if sw, err = s.cluster.Submit(s.base, s.sweeps, spec); err != nil {
			s.log.Warn("cluster sweep submit failed", "error", err.Error())
			writeAPIError(w, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
	} else if sw, err = s.sweeps.SubmitCtx(s.base, spec); err != nil {
		writeSpecError(w, err)
		return
	}
	if s.ledger != nil {
		go s.recordSweep(sw)
	}
	snap := sw.Snapshot()
	s.log.Info("sweep submitted", "sweep", sw.ID, "kernel", sweepName(snap.Spec), "shards", snap.Total)
	writeJSON(w, http.StatusAccepted, sweepPayloadOf(snap))
}

// writeSpecError answers a sweep spec that validation rejected. A
// retired metric gets 410 kernel_retired, its message naming the
// replacement; a mode the kernel has no analytic law for gets 400
// mode_unsupported. The distinct codes let clients fall back
// programmatically instead of string-matching the message. Anything
// else is 400 invalid_sweep.
func writeSpecError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, sweep.ErrKernelRetired):
		writeAPIError(w, http.StatusGone, codeKernelRetired, err.Error())
	case errors.Is(err, sweep.ErrModeUnsupported):
		writeAPIError(w, http.StatusBadRequest, codeModeUnsupported, err.Error())
	default:
		writeAPIError(w, http.StatusBadRequest, codeInvalidSweep, err.Error())
	}
}

// handleListSweeps serves one page of the sweeps the server holds,
// newest first: running sweeps and the finished ones the retention bound
// keeps (GET /v1/runs is the full history). Query parameters: state=
// filters by lifecycle state; limit= (default 50, max 1000) and offset=
// (default 0) paginate; total counts the filtered set before pagination.
func (s *server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	q, ok := parseListQuery(w, r)
	if !ok {
		return
	}
	snaps := s.sweeps.List()
	if q.state != "" {
		kept := snaps[:0]
		for _, snap := range snaps {
			if snap.State == sweep.State(q.state) {
				kept = append(kept, snap)
			}
		}
		snaps = kept
	}
	total := len(snaps)
	snaps = page(snaps, q)
	out := make([]sweepPayload, 0, len(snaps))
	for _, snap := range snaps {
		out = append(out, sweepPayloadOf(snap))
	}
	writeJSON(w, http.StatusOK, sweepListPayload{Sweeps: out, Total: total, Limit: q.limit, Offset: q.offset})
}

// handleGetSweep serves one sweep with per-shard states and the
// merged-so-far partial results; a done sweep includes its full merged
// artifact.
func (s *server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, ok := s.sweeps.Get(id)
	if !ok {
		s.writeMissing(w, "sweep", id, codeSweepNotFound)
		return
	}
	writeJSON(w, http.StatusOK, sweepDetailOf(sw))
}

// handleCancelSweep cancels every non-terminal shard of a sweep.
func (s *server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, ok := s.sweeps.Get(id)
	if !ok {
		s.writeMissing(w, "sweep", id, codeSweepNotFound)
		return
	}
	if !sw.Cancel() {
		writeAPIErrorf(w, http.StatusConflict, codeSweepNotCancellable,
			"sweep already %s", sw.Snapshot().State)
		return
	}
	s.log.Info("sweep cancel requested", "sweep", id)
	writeJSON(w, http.StatusOK, sweepDetailOf(sw))
}

// handleSweepEvents streams a sweep's lifecycle as Server-Sent Events,
// mirroring the per-job stream:
//
//	event: progress   data: sweepProgressPayload  (whenever a shard finishes)
//	event: done       data: sweepDoneEvent        (exactly once, then the stream closes)
//
// A terminal sweep yields an immediate done event; a sweep that failed
// its failure budget carries the typed shard_failed envelope in it.
func (s *server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, ok := s.sweeps.Get(id)
	if !ok {
		s.writeMissing(w, "sweep", id, codeSweepNotFound)
		return
	}
	emit, ok := sseStream(w)
	if !ok {
		return
	}
	lastCompleted := -1
	ticker := time.NewTicker(ssePollInterval)
	defer ticker.Stop()
	for {
		snap := sw.Snapshot()
		if finished := snap.Completed + snap.Failed + snap.Cancelled; finished != lastCompleted {
			lastCompleted = finished
			emit("progress", sweepProgressPayload{
				ID: id, State: snap.State, Total: snap.Total,
				Completed: snap.Completed, Cached: snap.Cached,
			})
		}
		if snap.State.Terminal() {
			emit("done", sweepDoneEvent{ID: id, State: string(snap.State), Error: sweepError(snap)})
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// kernelPayload is the wire form of one sweep metric kernel in the
// GET /v1/kernels listing. Sampler reports which spec sampler values
// the kernel answers to ("mc", "is"); Twin names the counterpart
// kernel the sampler knob maps to, if any; Modes lists the estimator
// modes the kernel accepts in the spec's mode knob (kernels with an
// analytic SSTA law accept all three, importance-sampling kernels only
// "mc").
type kernelPayload struct {
	ID             string   `json:"id"`
	Kind           string   `json:"kind"`
	Description    string   `json:"description"`
	Unit           string   `json:"unit,omitempty"`
	DefaultSamples int      `json:"default_samples"`
	Sampler        string   `json:"sampler"`
	Twin           string   `json:"twin,omitempty"`
	Tail           bool     `json:"tail,omitempty"`
	Modes          []string `json:"modes"`
}

// kernelListPayload is the typed GET /v1/kernels response, carrying the
// same limit/offset/total pagination envelope as the other listings.
type kernelListPayload struct {
	Kernels []kernelPayload `json:"kernels"`
	Total   int             `json:"total"`
	Limit   int             `json:"limit"`
	Offset  int             `json:"offset"`
}

// handleKernels lists the sweep metric registry as typed objects, the
// kernel-side counterpart of GET /v1/experiments. Registry order is the
// stable pagination order.
func (s *server) handleKernels(w http.ResponseWriter, r *http.Request) {
	if st := r.URL.Query().Get("state"); st != "" {
		writeAPIErrorf(w, http.StatusBadRequest, codeInvalidQuery,
			"kernels are not stateful; state %q is not a valid filter here", st)
		return
	}
	q, ok := parseListQuery(w, r)
	if !ok {
		return
	}
	ks := sweep.Kernels()
	out := make([]kernelPayload, 0, len(ks))
	for _, k := range ks {
		p := kernelPayload{
			ID: k.ID, Kind: string(k.Kind), Description: k.Description,
			Unit: k.Unit, DefaultSamples: k.DefaultSamples,
			Sampler: "mc", Tail: k.Tail, Modes: k.Modes(),
		}
		if k.IS {
			p.Sampler = "is"
			p.Twin = k.MCTwin
		} else {
			p.Twin = k.ISTwin
		}
		out = append(out, p)
	}
	total := len(out)
	out = page(out, q)
	writeJSON(w, http.StatusOK, kernelListPayload{
		Kernels: out, Total: total, Limit: q.limit, Offset: q.offset,
	})
}
