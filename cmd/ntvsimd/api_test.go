package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// errCode extracts the stable code from a decoded error envelope.
func errCode(out map[string]any) string {
	env, _ := out["error"].(map[string]any)
	code, _ := env["code"].(string)
	return code
}

// getBody fetches a URL and returns the status and raw body.
func getBody(t *testing.T, url string) (int, string) {
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
	return resp.StatusCode, string(b)
}

// TestErrorEnvelopeGolden pins the exact serialized envelope: stable
// code, human message, nothing else. These bytes are the v1 contract.
func TestErrorEnvelopeGolden(t *testing.T) {
	_, ts := newTestServer(t)

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantBody   string
	}{
		{
			name: "job not found", method: http.MethodGet, path: "/v1/jobs/deadbeef",
			wantStatus: http.StatusNotFound,
			wantBody: `{
  "error": {
    "code": "job_not_found",
    "message": "no such job"
  }
}
`,
		},
		{
			name: "sweep not found", method: http.MethodGet, path: "/v1/sweeps/deadbeef",
			wantStatus: http.StatusNotFound,
			wantBody: `{
  "error": {
    "code": "sweep_not_found",
    "message": "no such sweep"
  }
}
`,
		},
		{
			name: "trace not found", method: http.MethodGet, path: "/debug/trace/deadbeef",
			wantStatus: http.StatusNotFound,
			wantBody: `{
  "error": {
    "code": "trace_not_found",
    "message": "no trace recorded under this id (traces exist once a job or sweep starts running)"
  }
}
`,
		},
		{
			name: "invalid body", method: http.MethodPost, path: "/v1/jobs", body: "{not json",
			wantStatus: http.StatusBadRequest,
			wantBody: `{
  "error": {
    "code": "invalid_body",
    "message": "invalid JSON body: invalid character 'n' looking for beginning of object key string"
  }
}
`,
		},
		{
			name: "invalid sweep body", method: http.MethodPost, path: "/v1/sweeps", body: "[]",
			wantStatus: http.StatusBadRequest,
			wantBody: `{
  "error": {
    "code": "invalid_body",
    "message": "invalid JSON body: json: cannot unmarshal array into Go value of type sweep.Spec"
  }
}
`,
		},
		{
			name: "retired expvar dump", method: http.MethodGet, path: "/metrics/expvar",
			wantStatus: http.StatusGone,
			wantBody: `{
  "error": {
    "code": "endpoint_retired",
    "message": "GET /metrics/expvar was retired in revision 13; read the Prometheus exposition at GET /metrics instead"
  }
}
`,
		},
		{
			name: "invalid query", method: http.MethodGet, path: "/v1/jobs?state=sleeping",
			wantStatus: http.StatusBadRequest,
			wantBody: `{
  "error": {
    "code": "invalid_query",
    "message": "unknown state \"sleeping\" (one of queued, running, done, failed, cancelled)"
  }
}
`,
		},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
		if got := string(b); got != tc.wantBody {
			t.Errorf("%s: body\n%s\nwant\n%s", tc.name, got, tc.wantBody)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content-type %q", tc.name, ct)
		}
	}
}

// TestJobListPagination submits instant jobs directly to the manager
// (no Monte-Carlo work) and exercises state filtering, limit/offset and
// the deterministic newest-first order over HTTP.
func TestJobListPagination(t *testing.T) {
	s, ts := newTestServer(t)

	instant := func(ctx context.Context) (any, error) { return nil, nil }
	failing := func(ctx context.Context) (any, error) { return nil, fmt.Errorf("boom") }
	var ids []string
	for i := 0; i < 5; i++ {
		fn := instant
		if i == 4 {
			fn = failing
		}
		id, err := s.jobs.Submit(fmt.Sprintf("synthetic-%d", i), fn)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		time.Sleep(2 * time.Millisecond) // distinct creation times for a stable order
	}
	// Wait for all jobs to finish.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=done", nil)
		if code != http.StatusOK {
			t.Fatalf("list: status %d", code)
		}
		if total, _ := out["total"].(float64); total == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("synthetic jobs never finished: %v", out)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Unfiltered: all five jobs, defaults echoed back.
	code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if out["total"].(float64) != 5 || out["limit"].(float64) != 50 || out["offset"].(float64) != 0 {
		t.Errorf("unfiltered listing meta: total=%v limit=%v offset=%v", out["total"], out["limit"], out["offset"])
	}
	jobsOf := func(out map[string]any) []string {
		list, _ := out["jobs"].([]any)
		var got []string
		for _, item := range list {
			j, _ := item.(map[string]any)
			id, _ := j["id"].(string)
			got = append(got, id)
		}
		return got
	}
	all := jobsOf(out)
	if len(all) != 5 {
		t.Fatalf("unfiltered page has %d jobs", len(all))
	}
	// Newest first: submission order reversed.
	for i, id := range all {
		if want := ids[len(ids)-1-i]; id != want {
			t.Errorf("position %d: %s, want %s", i, id, want)
		}
	}

	// Pages tile the full listing without overlap.
	_, p1 := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?limit=2", nil)
	_, p2 := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?limit=2&offset=2", nil)
	_, p3 := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?limit=2&offset=4", nil)
	var paged []string
	paged = append(paged, jobsOf(p1)...)
	paged = append(paged, jobsOf(p2)...)
	paged = append(paged, jobsOf(p3)...)
	if len(paged) != 5 {
		t.Fatalf("pages tile to %d jobs: %v", len(paged), paged)
	}
	for i := range paged {
		if paged[i] != all[i] {
			t.Errorf("paged[%d] = %s, full[%d] = %s", i, paged[i], i, all[i])
		}
	}

	// Offset past the end is an empty page, not an error.
	code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?offset=99", nil)
	if code != http.StatusOK || len(jobsOf(out)) != 0 || out["total"].(float64) != 5 {
		t.Errorf("past-the-end page: %d %v", code, out)
	}

	// State filter: exactly one failed job.
	code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=failed", nil)
	if code != http.StatusOK {
		t.Fatalf("state filter: status %d", code)
	}
	if got := jobsOf(out); len(got) != 1 || got[0] != ids[4] {
		t.Errorf("failed filter returned %v, want [%s]", got, ids[4])
	}

	// Bad pagination parameters.
	for _, q := range []string{"limit=0", "limit=x", "offset=-1"} {
		if code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?"+q, nil); code != http.StatusBadRequest || errCode(out) != "invalid_query" {
			t.Errorf("%s: %d %v", q, code, out)
		}
	}
}

func TestHealthzTyped(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out["ok"] != true {
		t.Errorf("ok = %v", out["ok"])
	}
	if n, _ := out["experiments"].(float64); n < 20 {
		t.Errorf("experiments = %v", out["experiments"])
	}
	if n, _ := out["workers"].(float64); n != 2 {
		t.Errorf("workers = %v", out["workers"])
	}
	for _, key := range []string{"queue_depth", "jobs_running"} {
		if _, ok := out[key].(float64); !ok {
			t.Errorf("%s missing from %v", key, out)
		}
	}
}

func TestUnknownExperimentsFormat(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/experiments?format=xml", nil)
	if code != http.StatusBadRequest || errCode(out) != "invalid_query" {
		t.Errorf("format=xml: %d %v", code, out)
	}
}
