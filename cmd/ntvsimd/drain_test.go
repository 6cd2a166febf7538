package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/faults"
	"github.com/ntvsim/ntvsim/internal/jobs"
)

// TestDrainLifecycle is the drain acceptance test: with a job in
// flight, starting the drain flips /healthz to "draining", new job and
// sweep submissions get the typed 503 shutting_down envelope, the
// ntvsim_jobs_draining gauge reports the in-flight work — and the job
// still runs to completion before drain returns.
func TestDrainLifecycle(t *testing.T) {
	s := plainServer(t, 2, 16, 32)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	// An in-flight job, gated so it is mid-run for the whole test.
	release := make(chan struct{})
	jobID, err := s.jobs.Submit("gated", func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "finished", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Healthy before the signal.
	var health map[string]any
	if code, _ := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health["ok"] != true || health["status"] != "ok" {
		t.Fatalf("pre-drain healthz = %v", health)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.drain(ctx)
	}()
	waitFor(t, 5*time.Second, "server to start draining", func() bool { return s.draining.Load() })

	// The health state machine reports draining.
	if code, _ := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d during drain", code)
	}
	if health["ok"] != false || health["status"] != "draining" {
		t.Fatalf("draining healthz = %v", health)
	}

	// New submissions — jobs and sweeps — get the typed 503 envelope.
	for path, body := range map[string]map[string]any{
		"/v1/jobs":   {"experiment": "fig2", "quick": true},
		"/v1/sweeps": {"metric": "chain3sigma", "samples": []int{50}},
	} {
		code, out := doJSON(t, http.MethodPost, ts.URL+path, body)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("POST %s during drain: status %d (%v)", path, code, out)
		}
		envelope, _ := out["error"].(map[string]any)
		if envelope["code"] != codeShuttingDown {
			t.Fatalf("POST %s during drain: error %v, want code %q", path, out, codeShuttingDown)
		}
	}

	// The drain gauge counts the in-flight job on /metrics.
	metrics := getText(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "ntvsim_jobs_draining 1") {
		t.Fatalf("metrics during drain lack ntvsim_jobs_draining 1:\n%s",
			grepMetrics(metrics, "ntvsim_jobs"))
	}

	// The in-flight job finishes gracefully; only then does drain return.
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) while the job was still gated", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never returned after the job was released")
	}
	snap, _ := s.jobs.Get(jobID)
	if snap.State != jobs.Done {
		t.Fatalf("in-flight job drained as %s, want done", snap.State)
	}
	if !strings.Contains(getText(t, ts.URL+"/metrics"), "ntvsim_jobs_draining 0") {
		t.Fatal("drain gauge did not return to 0 after the drain")
	}
}

// TestSweepFailureBudgetSSE is the satellite SSE test: a sweep that
// fails via the failure budget still emits a terminal done event, and
// that event carries the golden shard_failed envelope. The single
// worker makes shard 0 the deterministic first failure.
func TestSweepFailureBudgetSSE(t *testing.T) {
	s := plainServer(t, 1, 16, 32)
	in := faults.New(1, faults.Rule{
		Site: faults.SiteSweepShard, Kind: faults.KindError,
		Permanent: true, Times: 1 << 30,
	})
	s.base = faults.With(context.Background(), in)
	ts := httptest.NewServer(s.handler())
	defer func() {
		ts.Close()
		s.close()
	}()

	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{
		"metric":            "chain3sigma",
		"nodes":             []string{"22nm PTM HP"},
		"vdd":               map[string]float64{"from": 0.5, "to": 0.6, "step": 0.05},
		"samples":           []int{50},
		"seed":              7,
		"max_shard_retries": -1,
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sawDone := false
	readSSE(t, resp.Body, 1000, func(ev sseEvent) bool {
		if ev.name != "done" {
			return false
		}
		sawDone = true
		if ev.data["state"] != "failed" {
			t.Fatalf("done event state %v, want failed", ev.data["state"])
		}
		envelope, _ := ev.data["error"].(map[string]any)
		if envelope == nil {
			t.Fatalf("done event has no error envelope: %v", ev.data)
		}
		// Golden: stable code, deterministic message (shard 0 is the
		// single worker's first evaluation, so it trips injector call 1).
		wantJSON := `{"code":"shard_failed","message":"shard 0: faults: injected error at sweep.shard (call 1)"}`
		gotJSON, err := json.Marshal(envelope)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != wantJSON {
			t.Fatalf("shard_failed envelope:\n got %s\nwant %s", gotJSON, wantJSON)
		}
		return true
	})
	if !sawDone {
		t.Fatal("SSE stream closed without a done event")
	}

	// The unary GET carries the same typed envelope.
	var sweepOut map[string]any
	if code, _ := getJSON(t, ts.URL+"/v1/sweeps/"+id, &sweepOut); code != http.StatusOK {
		t.Fatalf("GET sweep: status %d", code)
	}
	envelope, _ := sweepOut["error"].(map[string]any)
	if envelope == nil || envelope["code"] != codeShardFailed {
		t.Fatalf("GET sweep error envelope = %v, want code %q", sweepOut["error"], codeShardFailed)
	}
}

// TestJobPanicSurfacesStack submits a job whose sampling loop panics by
// injection: it must finalize failed with the stack visible on the
// single-job GET and elided from the listing.
func TestJobPanicSurfacesStack(t *testing.T) {
	s := plainServer(t, 1, 16, 32)
	in := faults.New(1, faults.Rule{Site: faults.SiteMonteCarloChunk, Kind: faults.KindPanic})
	s.base = faults.With(context.Background(), in)
	ts := httptest.NewServer(s.handler())
	defer func() {
		ts.Close()
		s.close()
	}()

	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{
		"experiment": "fig2", "quick": true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	job := pollDone(t, ts.URL, id, 60*time.Second)
	if job["state"] != "failed" {
		t.Fatalf("panicked job state %v, want failed", job["state"])
	}
	errMsg, _ := job["error"].(string)
	if !strings.Contains(errMsg, "faults: injected panic at montecarlo.chunk") {
		t.Fatalf("job error %q does not name the injected panic", errMsg)
	}
	stack, _ := job["stack"].(string)
	if !strings.Contains(stack, "goroutine") {
		t.Fatalf("single-job GET carries no stack: %q", stack)
	}

	var listing map[string]any
	if code, _ := getJSON(t, ts.URL+"/v1/jobs?state=failed", &listing); code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: status %d", code)
	}
	jobsList, _ := listing["jobs"].([]any)
	if len(jobsList) == 0 {
		t.Fatal("failed job missing from the listing")
	}
	if entry, _ := jobsList[0].(map[string]any); entry["stack"] != nil {
		t.Fatalf("listing leaks the panic stack: %v", entry["stack"])
	}
}

// TestJobRetryOverHTTP exercises the max_retries submit knob end to
// end: the first attempt dies in the injected fault, the retry
// succeeds, and the payload reports both attempts.
func TestJobRetryOverHTTP(t *testing.T) {
	s := plainServer(t, 1, 16, 32)
	s.jobs.SetBackoff(jobs.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1})
	in := faults.New(1, faults.Rule{Site: faults.SiteJobAttempt, Kind: faults.KindError})
	s.base = faults.With(context.Background(), in)
	ts := httptest.NewServer(s.handler())
	defer func() {
		ts.Close()
		s.close()
	}()

	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{
		"experiment": "fig2", "quick": true, "max_retries": 2,
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	job := pollDone(t, ts.URL, id, 60*time.Second)
	if job["state"] != "done" {
		t.Fatalf("retried job state %v (%v), want done", job["state"], job["error"])
	}
	if attempts, _ := job["attempts"].(float64); attempts != 2 {
		t.Fatalf("attempts = %v, want 2", job["attempts"])
	}
	if !strings.Contains(getText(t, ts.URL+"/metrics"), "ntvsim_job_retries_total 1") {
		t.Fatal("ntvsim_job_retries_total did not count the retry")
	}

	// Negative knobs are rejected with the typed invalid_body envelope.
	code, out = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{
		"experiment": "fig2", "quick": true, "max_retries": -1,
	})
	envelope, _ := out["error"].(map[string]any)
	if code != http.StatusBadRequest || envelope["code"] != codeInvalidBody {
		t.Fatalf("negative max_retries: status %d, error %v", code, out)
	}
}

// getJSON decodes a GET response body into out and returns the status.
func getJSON(t *testing.T, url string, out *map[string]any) (int, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp.StatusCode, nil
}

// getText fetches a URL's body as a string (the /metrics exposition).
func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// grepMetrics filters an exposition down to lines containing substr,
// for readable failure messages.
func grepMetrics(metrics, substr string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
