package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// plainServer builds a server with no ledger and the default trace
// buffer.
func plainServer(t *testing.T, workers, queueDepth, cacheSize int) *server {
	t.Helper()
	s, err := newServerWith(serverConfig{workers: workers, queueDepth: queueDepth, cacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := plainServer(t, 2, 16, 32)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// pollDone polls GET /v1/jobs/{id} until the job is terminal.
func pollDone(t *testing.T, base, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		code, job := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET job: status %d (%v)", code, job)
		}
		switch job["state"] {
		case "done", "failed", "cancelled":
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after %v", id, timeout)
	return nil
}

// metric reads one unlabelled sample from the Prometheus exposition.
func metric(t *testing.T, base, name string) float64 {
	t.Helper()
	return validatePrometheus(t, fetch(t, base+"/metrics"))[name]
}

// tinyFig4 is a fast but real fig4 configuration for end-to-end tests.
var tinyFig4 = map[string]any{
	"experiment": "fig4",
	"config": map[string]any{
		"seed": 12345, "circuit_samples": 50, "chip_samples": 120, "search_samples": 50,
	},
}

func TestListExperiments(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/experiments", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	objs, _ := out["experiments"].([]any)
	found := false
	for _, item := range objs {
		obj, _ := item.(map[string]any)
		if obj["id"] != "fig4" {
			continue
		}
		found = true
		if obj["kind"] != "architecture" {
			t.Errorf("fig4 kind = %v", obj["kind"])
		}
		if desc, _ := obj["description"].(string); desc == "" {
			t.Error("fig4 has no description")
		}
		if n, _ := obj["default_samples"].(float64); n <= 0 {
			t.Errorf("fig4 default_samples = %v", obj["default_samples"])
		}
	}
	if !found {
		t.Errorf("fig4 missing from %v", objs)
	}

	// The bare-id listing under ?format=ids — deprecated since revision
	// 4 — is retired: it now answers the typed deprecated_parameter
	// envelope instead of data.
	code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/experiments?format=ids", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("format=ids: status %d, want 400 (parameter retired)", code)
	}
	if got := errCode(out); got != "deprecated_parameter" {
		t.Errorf("format=ids error code %q, want deprecated_parameter", got)
	}
}

// TestSubmitRunCacheHit is the acceptance walkthrough: POST a fig4 job,
// watch it complete with a structured result, then repeat the identical
// request and require an immediate cache hit visible in /metrics.
func TestSubmitRunCacheHit(t *testing.T) {
	_, ts := newTestServer(t)
	hitsBefore := metric(t, ts.URL, "ntvsimd_cache_hits_total")

	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinyFig4)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	if id == "" || out["state"] != "queued" {
		t.Fatalf("POST response %v", out)
	}

	job := pollDone(t, ts.URL, id, 2*time.Minute)
	if job["state"] != "done" {
		t.Fatalf("job finished as %v: %v", job["state"], job["error"])
	}
	res, _ := job["result"].(map[string]any)
	if res == nil || res["id"] != "fig4" {
		t.Fatalf("result payload %v", job["result"])
	}
	if render, _ := res["render"].(string); len(render) < 100 {
		t.Errorf("render implausibly short: %q", render)
	}
	if res["data"] == nil {
		t.Error("fig4 result missing structured data")
	}

	// Identical request → served from cache, no new job.
	code, out = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinyFig4)
	if code != http.StatusOK {
		t.Fatalf("repeat POST: status %d (%v)", code, out)
	}
	if out["cached"] != true || out["state"] != "done" || out["result"] == nil {
		t.Fatalf("repeat POST not a cache hit: %v", out)
	}
	if hits := metric(t, ts.URL, "ntvsimd_cache_hits_total"); hits <= hitsBefore {
		t.Errorf("cache hits %v not above baseline %v", hits, hitsBefore)
	}
	if metric(t, ts.URL, "ntvsim_mc_samples_evaluated_total") == 0 {
		t.Error("MC sample gauge never moved")
	}
}

// TestCancelStopsWork submits a fig4 run sized to take minutes, cancels
// it immediately, and requires the job to finalize as cancelled within
// seconds — which can only happen if cancellation reaches the
// Monte-Carlo loops.
func TestCancelStopsWork(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{
		"experiment": "fig4",
		"config":     map[string]any{"seed": 777, "chip_samples": 30_000_000},
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)

	// Let it leave the queue so we exercise mid-run cancellation.
	time.Sleep(150 * time.Millisecond)
	code, out = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/"+id+"/cancel", nil)
	if code != http.StatusOK {
		t.Fatalf("cancel: status %d (%v)", code, out)
	}

	start := time.Now()
	job := pollDone(t, ts.URL, id, 30*time.Second)
	if job["state"] != "cancelled" {
		t.Fatalf("state %v after cancel", job["state"])
	}
	if waited := time.Since(start); waited > 15*time.Second {
		t.Errorf("cancellation took %v; Monte-Carlo work did not stop", waited)
	}

	// Cancelling a finished job is a conflict.
	if code, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/"+id+"/cancel", nil); code != http.StatusConflict {
		t.Errorf("second cancel: status %d, want 409", code)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name     string
		body     any
		want     int
		wantCode string
	}{
		{"unknown experiment", map[string]any{"experiment": "fig99"}, http.StatusBadRequest, "unknown_experiment"},
		{"missing experiment", map[string]any{}, http.StatusBadRequest, "invalid_body"},
		{"negative samples", map[string]any{
			"experiment": "fig4",
			"config":     map[string]any{"chip_samples": -5},
		}, http.StatusBadRequest, "invalid_config"},
	}
	for _, tc := range cases {
		if code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tc.body); code != tc.want {
			t.Errorf("%s: status %d (%v), want %d", tc.name, code, out, tc.want)
		} else if got := errCode(out); got != tc.wantCode {
			t.Errorf("%s: error code %q, want %q", tc.name, got, tc.wantCode)
		}
	}

	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/deadbeef/cancel", nil); code != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d, want 404", code)
	}
}

func TestJobListing(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{
		"experiment": "fig1", "quick": true,
		"config": map[string]any{"seed": 4242, "circuit_samples": 60},
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	pollDone(t, ts.URL, id, 2*time.Minute)

	code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: status %d", code)
	}
	list, _ := out["jobs"].([]any)
	found := false
	for _, item := range list {
		j, _ := item.(map[string]any)
		if j["id"] == id {
			found = true
			if j["experiment"] != "fig1" {
				t.Errorf("listed experiment = %v", j["experiment"])
			}
		}
	}
	if !found {
		t.Errorf("job %s missing from listing %v", id, list)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK || out["ok"] != true {
		t.Errorf("healthz = %d %v", code, out)
	}
}

// TestDebugMux: the debug listener serves pprof and nothing else;
// /debug/vars, an expvar dump, stays unrouted because /metrics is the
// only metrics surface.
func TestDebugMux(t *testing.T) {
	ts := httptest.NewServer(debugMux())
	defer ts.Close()
	for path, want := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/debug/pprof/cmdline": http.StatusOK,
		"/debug/vars":          http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestQueueFullMapsTo503 fills a tiny pool with long jobs and expects
// the next submission to be rejected with 503.
func TestQueueFullMapsTo503(t *testing.T) {
	s := plainServer(t, 1, 1, 8)
	ts := httptest.NewServer(s.handler())
	defer func() {
		ts.Close()
		s.close()
	}()
	big := func(seed int) map[string]any {
		return map[string]any{
			"experiment": "fig4",
			"config":     map[string]any{"seed": seed, "chip_samples": 30_000_000},
		}
	}
	ids := []string{}
	saw503 := false
	for i := 1; i <= 4; i++ {
		code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", big(i))
		switch code {
		case http.StatusAccepted:
			ids = append(ids, out["id"].(string))
		case http.StatusServiceUnavailable:
			saw503 = true
		default:
			t.Fatalf("POST %d: status %d (%v)", i, code, out)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !saw503 {
		t.Error("queue never reported full")
	}
	for _, id := range ids {
		doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/jobs/%s/cancel", ts.URL, id), nil)
	}
	for _, id := range ids {
		pollDone(t, ts.URL, id, 30*time.Second)
	}
}

func TestListKernels(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/kernels", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	objs, _ := out["kernels"].([]any)
	if total, _ := out["total"].(float64); total != 8 || len(objs) != 8 {
		t.Errorf("listing holds %d kernels, total %v; want the 8 registered", len(objs), out["total"])
	}
	byID := map[string]map[string]any{}
	for _, item := range objs {
		obj, _ := item.(map[string]any)
		id, _ := obj["id"].(string)
		byID[id] = obj
		if _, ok := obj["default_shift"]; ok {
			t.Errorf("kernel %s carries the retired default_shift field", id)
		}
	}
	for _, id := range []string{"chain3sigma", "p99chipclock", "tailyield", "yield_is"} {
		if byID[id] == nil {
			t.Fatalf("kernel %q missing from %v", id, objs)
		}
	}
	if byID["p99chipclock_is"] != nil {
		t.Error("retired kernel p99chipclock_is is still listed")
	}
	if s, _ := byID["yield_is"]["sampler"].(string); s != "is" {
		t.Errorf("yield_is sampler = %v", byID["yield_is"]["sampler"])
	}
	if tw, _ := byID["yield_is"]["twin"].(string); tw != "tailyield" {
		t.Errorf("yield_is twin = %v", byID["yield_is"]["twin"])
	}
	if tw, _ := byID["tailyield"]["twin"].(string); tw != "yield_is" {
		t.Errorf("tailyield twin = %v", byID["tailyield"]["twin"])
	}
	if s, _ := byID["chain3sigma"]["sampler"].(string); s != "mc" {
		t.Errorf("chain3sigma sampler = %v", byID["chain3sigma"]["sampler"])
	}
	if tw, ok := byID["p99chipclock"]["twin"]; ok {
		t.Errorf("p99chipclock twin = %v, want none", tw)
	}
}
