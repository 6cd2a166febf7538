package main

// Retention at the daemon surface: finished sweeps and jobs leave
// memory past the retention bound, an evicted id answers 410 evicted
// when the run ledger recorded it (404 without a ledger), the ledger
// still serves the full record and its trace, resubmitting a recorded
// spec reproduces the result byte for byte, GET /v1/sweeps pages over
// what is held, and the heap stays flat under a long run of sweeps.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/sweep"
)

// oneShardSweep is a one-shard sweep that evaluates in milliseconds;
// seeds tell instances apart.
func oneShardSweep(seed uint64) sweep.Spec {
	return sweep.Spec{
		Metric:  "gate3sigma",
		Nodes:   []string{"90nm GP"},
		Vdd:     &sweep.VddAxis{From: 0.5, To: 0.5, Step: 0.1},
		Samples: []int{50},
		Seed:    seed,
	}
}

// newRetainServer boots a server keeping retain finished sweeps and
// jobs each, with a one-slot trace ring so evicted runs' traces come
// from the ledger; dataDir "" runs without a ledger.
func newRetainServer(t *testing.T, dataDir string, retain int) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServerWith(serverConfig{
		workers: 2, queueDepth: 16, cacheSize: 32, traceBuffer: 1, dataDir: dataDir, retain: retain,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.close()
	})
	return s, ts
}

// rawResult fetches a job or sweep and returns its served result bytes.
func rawResult(t *testing.T, url string) json.RawMessage {
	t.Helper()
	code, body := getBody(t, url)
	var out struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(body), &out); code != http.StatusOK || err != nil || len(out.Result) == 0 {
		t.Fatalf("GET %s: %d, no result (%v): %.200s", url, code, err, body)
	}
	return out.Result
}

// submitSweep posts spec and returns the new sweep's id.
func submitSweep(t *testing.T, base string, spec any) string {
	t.Helper()
	code, out := doJSON(t, http.MethodPost, base+"/v1/sweeps", spec)
	id, _ := out["id"].(string)
	if code != http.StatusAccepted || id == "" {
		t.Fatalf("POST /v1/sweeps: %d %v", code, out)
	}
	return id
}

// waitRecorded waits until the run ledger holds a record of id.
func waitRecorded(t *testing.T, s *server, id string) {
	t.Helper()
	waitFor(t, 30*time.Second, "run "+id+" in the ledger", func() bool { return s.ledger.Has(id) })
}

// TestEvictedRunsAnswerGone drives a sweep and a job out of memory
// under a bound of one and checks every route that names them: GET and
// each sub-route answer 410 evicted naming GET /v1/runs/{id}; the ledger
// still serves the full record and, once the trace ring has moved on,
// the persisted trace; resubmitting each recorded spec serves a
// byte-identical result from the cache; /metrics counts the evictions.
func TestEvictedRunsAnswerGone(t *testing.T) {
	s, ts := newRetainServer(t, t.TempDir(), 1)

	sweepID := submitSweep(t, ts.URL, oneShardSweep(1))
	pollSweepDone(t, ts.URL, sweepID, time.Minute)
	sweepResult := rawResult(t, ts.URL+"/v1/sweeps/"+sweepID)
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinyFig4)
	jobID, _ := out["id"].(string)
	if code != http.StatusAccepted || jobID == "" {
		t.Fatalf("POST /v1/jobs: %d %v", code, out)
	}
	pollDone(t, ts.URL, jobID, time.Minute)
	jobResult := rawResult(t, ts.URL+"/v1/jobs/"+jobID)
	waitRecorded(t, s, sweepID)
	waitRecorded(t, s, jobID)

	// One more sweep and job push both out: each registry keeps one
	// finished entry.
	next := submitSweep(t, ts.URL, oneShardSweep(2))
	pollSweepDone(t, ts.URL, next, time.Minute)
	id, err := s.jobs.Submit("filler", func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "the filler job to evict the API job", func() bool {
		_, held := s.jobs.Get(jobID)
		return !held
	})
	if _, held := s.jobs.Get(id); !held {
		t.Fatal("the newest finished job was evicted")
	}

	for _, rt := range []struct{ method, kind, id, sub string }{
		{http.MethodGet, "sweeps", sweepID, ""},
		{http.MethodGet, "sweeps", sweepID, "/events"},
		{http.MethodPost, "sweeps", sweepID, "/cancel"},
		{http.MethodGet, "jobs", jobID, ""},
		{http.MethodGet, "jobs", jobID, "/progress"},
		{http.MethodGet, "jobs", jobID, "/events"},
		{http.MethodPost, "jobs", jobID, "/cancel"},
	} {
		path := "/v1/" + rt.kind + "/" + rt.id + rt.sub
		code, out := doJSON(t, rt.method, ts.URL+path, nil)
		env, _ := out["error"].(map[string]any)
		msg, _ := env["message"].(string)
		if code != http.StatusGone || errCode(out) != codeEvicted || !strings.Contains(msg, "GET /v1/runs/"+rt.id) {
			t.Errorf("%s %s: %d %v, want 410 evicted naming GET /v1/runs/%s", rt.method, path, code, out, rt.id)
		}
	}
	for _, path := range []string{"/v1/sweeps/sw00000000000000", "/v1/jobs/0000000000000000"} {
		if code, out := doJSON(t, http.MethodGet, ts.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s of an unknown id: %d %v, want 404", path, code, out)
		}
	}

	// The ledger keeps the whole record and the trace.
	var rec struct {
		Kind   string          `json:"kind"`
		Name   string          `json:"name"`
		Spec   json.RawMessage `json:"spec"`
		Shards []any           `json:"shards"`
		Trace  *struct {
			Root any `json:"root"`
		} `json:"trace"`
	}
	code, body := getBody(t, ts.URL+"/v1/runs/"+sweepID)
	if err := json.Unmarshal([]byte(body), &rec); code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/runs/%s: %d %v", sweepID, code, err)
	}
	if rec.Kind != "sweep" || len(rec.Spec) == 0 || len(rec.Shards) != 1 || rec.Trace == nil || rec.Trace.Root == nil {
		t.Fatalf("ledger record of the evicted sweep is not whole: %.300s", body)
	}
	if _, live := s.traces.Get(sweepID); live {
		t.Fatal("the trace ring still holds the sweep; the test wants the ledger fallback")
	}
	if code, body := getBody(t, ts.URL+"/debug/trace/"+sweepID); code != http.StatusOK || !strings.Contains(body, "sweep/") {
		t.Errorf("GET /debug/trace/%s: %d %.200s, want the persisted span tree", sweepID, code, body)
	}

	// Resubmitting the recorded spec reproduces the result byte for byte.
	again := submitSweep(t, ts.URL, rec.Spec)
	if done := pollSweepDone(t, ts.URL, again, time.Minute); done["cached"] != float64(1) {
		t.Errorf("resubmitted sweep: cached %v, want its one shard from the cache", done["cached"])
	}
	if got := rawResult(t, ts.URL+"/v1/sweeps/"+again); !bytes.Equal(got, sweepResult) {
		t.Errorf("resubmitted sweep result differs:\n%s\nwant\n%s", got, sweepResult)
	}
	code, body = getBody(t, ts.URL+"/v1/runs/"+jobID)
	if err := json.Unmarshal([]byte(body), &rec); code != http.StatusOK || err != nil {
		t.Fatalf("GET /v1/runs/%s: %d %v", jobID, code, err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"experiment":%q,"config":%s}`, rec.Name, rec.Spec)))
	if err != nil {
		t.Fatal(err)
	}
	var cached struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cached)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !cached.Cached || !bytes.Equal(cached.Result, jobResult) {
		t.Errorf("resubmitted job: %d cached=%v err=%v; result identical=%v", resp.StatusCode, cached.Cached, err, bytes.Equal(cached.Result, jobResult))
	}

	samples := validatePrometheus(t, fetch(t, ts.URL+"/metrics"))
	for _, kind := range []string{"sweep", "job"} {
		if n := samples[`ntvsimd_evicted_total{kind="`+kind+`"}`]; n < 1 {
			t.Errorf("ntvsimd_evicted_total{kind=%q} = %v, want ≥ 1", kind, n)
		}
		if n := samples[`ntvsimd_retained{kind="`+kind+`"}`]; n != 1 {
			t.Errorf("ntvsimd_retained{kind=%q} = %v, want 1 (the bound, nothing in flight)", kind, n)
		}
	}
}

// TestEvictedWithoutLedgerIsNotFound: with no run ledger there is no
// record to point at, so an evicted id is simply unknown.
func TestEvictedWithoutLedgerIsNotFound(t *testing.T) {
	s, ts := newRetainServer(t, "", 1)
	first := submitSweep(t, ts.URL, oneShardSweep(1))
	pollSweepDone(t, ts.URL, first, time.Minute)
	pollSweepDone(t, ts.URL, submitSweep(t, ts.URL, oneShardSweep(2)), time.Minute)
	if _, held := s.sweeps.Get(first); held {
		t.Fatal("the first sweep was not evicted")
	}
	if code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+first, nil); code != http.StatusNotFound || errCode(out) != codeSweepNotFound {
		t.Errorf("evicted sweep without a ledger: %d %v, want 404 sweep_not_found", code, out)
	}
}

// TestSweepListPagination mirrors TestJobListPagination on
// GET /v1/sweeps: newest first, defaults echoed, pages that tile the
// listing, a state filter, and invalid_query on bad parameters.
func TestSweepListPagination(t *testing.T) {
	s, ts := newTestServer(t)
	var ids []string
	for i := 0; i < 4; i++ {
		id := submitSweep(t, ts.URL, oneShardSweep(uint64(i+1)))
		pollSweepDone(t, ts.URL, id, time.Minute)
		ids = append(ids, id)
	}
	// A fifth sweep queues behind two parked workers and is cancelled.
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < 2; i++ {
		if _, err := s.jobs.Submit("park", func(context.Context) (any, error) { <-release; return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	cancelled := submitSweep(t, ts.URL, oneShardSweep(99))
	if code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps/"+cancelled+"/cancel", nil); code != http.StatusOK {
		t.Fatalf("cancel: %d %v", code, out)
	}
	pollSweepDone(t, ts.URL, cancelled, time.Minute)
	ids = append(ids, cancelled)

	sweepsOf := func(out map[string]any) []string {
		list, _ := out["sweeps"].([]any)
		var got []string
		for _, item := range list {
			sw, _ := item.(map[string]any)
			if _, detail := sw["shards"]; detail {
				t.Errorf("listing entry %v carries shard detail", sw["id"])
			}
			id, _ := sw["id"].(string)
			got = append(got, id)
		}
		return got
	}
	code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps", nil)
	if code != http.StatusOK || out["total"] != float64(5) || out["limit"] != float64(50) || out["offset"] != float64(0) {
		t.Fatalf("unfiltered listing: %d total=%v limit=%v offset=%v", code, out["total"], out["limit"], out["offset"])
	}
	all := sweepsOf(out)
	for i, id := range all {
		if want := ids[len(ids)-1-i]; id != want {
			t.Errorf("position %d: %s, want %s", i, id, want)
		}
	}
	var paged []string
	for offset := 0; offset < 6; offset += 2 {
		_, p := doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/sweeps?limit=2&offset=%d", ts.URL, offset), nil)
		paged = append(paged, sweepsOf(p)...)
	}
	if strings.Join(paged, ",") != strings.Join(all, ",") {
		t.Errorf("pages tile to %v, want %v", paged, all)
	}
	code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps?offset=99", nil)
	if code != http.StatusOK || len(sweepsOf(out)) != 0 || out["total"] != float64(5) {
		t.Errorf("past-the-end page: %d %v", code, out)
	}
	_, out = doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps?state=cancelled", nil)
	if got := sweepsOf(out); len(got) != 1 || got[0] != cancelled {
		t.Errorf("cancelled filter returned %v, want [%s]", got, cancelled)
	}
	if _, out = doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps?state=done", nil); out["total"] != float64(4) {
		t.Errorf("done filter total %v, want 4", out["total"])
	}
	for _, q := range []string{"limit=0", "limit=x", "offset=-1", "state=bogus"} {
		if code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps?"+q, nil); code != http.StatusBadRequest || errCode(out) != "invalid_query" {
			t.Errorf("%s: %d %v", q, code, out)
		}
	}
}

// TestRetentionSoak drives resubmissions of one cached 32-point sweep
// through the handler, with the ledger on and a bound of 8, and
// measures the live heap after a GC at n and at 4n sweeps, both far
// past the bound. What stays per sweep is the ledger's offset index
// entry, about a hundred bytes. A daemon that keeps every finished
// sweep and whole ledger records grows by unbounded ≈ 9.9 KB a sweep on
// this test (x86-64, Go 1.24); the heap here must grow by less than a
// tenth of that.
func TestRetentionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const n, bound, unbounded = 200, 8, 9900
	s, err := newServerWith(serverConfig{
		workers: 2, queueDepth: 16, cacheSize: 32, traceBuffer: 4, dataDir: t.TempDir(), retain: bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	h := s.handler()
	spec, err := json.Marshal(sweep.Spec{
		Metric: "gate3sigma", Nodes: []string{"90nm GP", "22nm PTM HP"},
		Vdd: &sweep.VddAxis{From: 0.40, To: 0.70, Step: 0.02}, Samples: []int{20}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	submitted := 0
	drive := func(upTo int) {
		for ; submitted < upTo; submitted++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(spec)))
			var out struct{ ID string }
			if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusAccepted || err != nil {
				t.Fatalf("POST /v1/sweeps: %d %s", rec.Code, rec.Body.String())
			}
			if sw, held := s.sweeps.Get(out.ID); held {
				<-sw.Done()
			}
		}
		waitFor(t, time.Minute, "every sweep in the ledger", func() bool { return s.ledger.Len() == upTo })
	}
	heapAt := func(sweeps int) uint64 {
		drive(sweeps)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	at1 := heapAt(n)
	at4 := heapAt(4 * n)
	grown := int64(at4) - int64(at1)
	t.Logf("live heap %d B at %d sweeps, %d B at %d: %d B/sweep", at1, n, at4, 4*n, grown/(3*n))
	if grown*10 >= 3*n*unbounded {
		t.Errorf("live heap grew %d B over %d sweeps (%d B/sweep), want < %d B/sweep", grown, 3*n, grown/(3*n), unbounded/10)
	}
	if held, evicted := s.sweeps.Retention(); held != bound || evicted != uint64(4*n-bound) {
		t.Errorf("engine holds %d sweeps and evicted %d, want %d and %d", held, evicted, bound, 4*n-bound)
	}
}
