package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// ssePollInterval is how often the event stream samples job state. Low
// enough that a progress bar feels live, high enough that a hundred
// subscribers cost nothing next to the Monte-Carlo work they watch.
const ssePollInterval = 100 * time.Millisecond

// doneEvent is the terminal SSE payload: the job's final state and, for
// failed or cancelled jobs, its error string.
type doneEvent struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// sseStream upgrades the response to a Server-Sent Events stream and
// returns the emit function. An error envelope has already been written
// when ok is false.
func sseStream(w http.ResponseWriter) (emit func(event string, payload any), ok bool) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeAPIError(w, http.StatusInternalServerError, codeStreamingUnsupported, "streaming unsupported")
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	return func(event string, payload any) {
		data, err := json.Marshal(payload)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}, true
}

// handleEvents streams one job's lifecycle as Server-Sent Events:
//
//	event: progress   data: progressPayload   (whenever samples-done moves)
//	event: phase      data: {"phase": "..."}  (whenever the phase label changes)
//	event: done       data: doneEvent         (exactly once, then the stream closes)
//
// A terminal job yields an immediate done event. The stream also ends
// when the client disconnects. Progress events are monotonic: done
// counts only ever increase.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.jobs.Get(id); !ok {
		s.writeMissing(w, "job", id, codeJobNotFound)
		return
	}
	emit, ok := sseStream(w)
	if !ok {
		return
	}

	var (
		lastDone  int64 = -1
		lastPhase       = ""
		ticker          = time.NewTicker(ssePollInterval)
	)
	defer ticker.Stop()
	for {
		snap, ok := s.jobs.Get(id)
		if !ok {
			// Only finished jobs are evicted, so this one finished and
			// left memory between two polls, before the stream saw its
			// final state; close with a terminal event naming its record.
			emit("done", doneEvent{ID: id, State: "evicted",
				Error: "job finished and was evicted from memory; read its record at GET /v1/runs/" + id})
			return
		}
		if phase := snap.Progress.Phase; phase != lastPhase {
			lastPhase = phase
			emit("phase", map[string]string{"id": id, "phase": phase})
		}
		if done := snap.Progress.Done; done != lastDone {
			lastDone = done
			emit("progress", progressOf(snap))
		}
		if snap.State.Terminal() {
			emit("done", doneEvent{ID: id, State: string(snap.State), Error: snap.Error})
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
