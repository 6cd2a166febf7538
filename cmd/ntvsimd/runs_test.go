package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/ledger"
)

// newLedgerServer builds a server recording into a fresh temp data dir
// and serves it over httptest. The dir is returned so restart tests can
// reopen the same ledger.
func newLedgerServer(t *testing.T, dir string) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServerWith(serverConfig{
		workers: 2, queueDepth: 16, cacheSize: 32, dataDir: dir,
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

// pollRunTotal polls GET /v1/runs until the (filtered) total reaches
// want — the ledger append runs concurrently with the job's terminal
// HTTP state, so records land moments after pollDone returns.
func pollRunTotal(t *testing.T, base, query string, want float64) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, out := doJSON(t, http.MethodGet, base+"/v1/runs"+query, nil)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/runs%s: status %d (%v)", query, code, out)
		}
		if total, _ := out["total"].(float64); total >= want {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("run ledger never reached %v records: %v", want, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunLedgerEndToEnd drives the durable-provenance walkthrough: a
// job completes, its run record shows up on /v1/runs with spec hash,
// seed, build revision, duration and sample count; the full record (and
// its persisted trace) is served by id; and all of it survives a
// restart of the daemon on the same data dir — including trace export
// after the in-memory ring is gone.
func TestRunLedgerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, ts := newLedgerServer(t, dir)

	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinyFig4)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	job := pollDone(t, ts.URL, id, 2*time.Minute)
	if job["state"] != "done" {
		t.Fatalf("job finished as %v: %v", job["state"], job["error"])
	}

	// Listing: elided fields stay off the wire, provenance fields do not.
	listing := pollRunTotal(t, ts.URL, "", 1)
	runs, _ := listing["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("listing has %d runs: %v", len(runs), listing)
	}
	entry, _ := runs[0].(map[string]any)
	if entry["run_id"] != id || entry["kind"] != "job" || entry["name"] != "fig4" {
		t.Errorf("listing entry identity: %v", entry)
	}
	if entry["state"] != "done" {
		t.Errorf("listing state = %v", entry["state"])
	}
	hash, _ := entry["spec_hash"].(string)
	if hash == "" {
		t.Error("listing entry has no spec_hash")
	}
	if seed, _ := entry["seed"].(float64); seed != 12345 {
		t.Errorf("listing seed = %v, want 12345", entry["seed"])
	}
	if entry["spec"] != nil || entry["shards"] != nil || entry["trace"] != nil {
		t.Errorf("listing entry leaks heavy fields: %v", entry)
	}
	build, _ := entry["build"].(map[string]any)
	if build == nil || build["go"] == "" {
		t.Errorf("listing entry build info: %v", entry["build"])
	}

	// Full record by id: resolved spec, timings, samples, span tree.
	code, rec := doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET run: status %d (%v)", code, rec)
	}
	if rec["schema"] != "ntvsim.run/v1" {
		t.Errorf("schema = %v", rec["schema"])
	}
	spec, _ := rec["spec"].(map[string]any)
	if spec == nil || spec["seed"].(float64) != 12345 {
		t.Errorf("recorded spec: %v", rec["spec"])
	}
	if ms, _ := rec["duration_ms"].(float64); ms <= 0 {
		t.Errorf("duration_ms = %v", rec["duration_ms"])
	}
	if n, _ := rec["samples"].(float64); n <= 0 {
		t.Errorf("samples = %v", rec["samples"])
	}
	trace, _ := rec["trace"].(map[string]any)
	if trace == nil {
		t.Fatal("record has no persisted trace")
	}

	// Restart: a second server on the same data dir replays the ledger.
	ts.Close()
	s.close()
	s2, ts2 := newLedgerServer(t, dir)
	if s2.ledger.Len() != 1 {
		t.Fatalf("replayed %d records, want 1", s2.ledger.Len())
	}
	code, rec2 := doJSON(t, http.MethodGet, ts2.URL+"/v1/runs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET run after restart: status %d (%v)", code, rec2)
	}
	if rec2["spec_hash"] != hash || rec2["seed"].(float64) != 12345 {
		t.Errorf("replayed record lost provenance: hash=%v seed=%v", rec2["spec_hash"], rec2["seed"])
	}

	// Trace export after restart: the new ring has never seen this job,
	// so /debug/trace must fall back to the ledger copy — and render it
	// as Chrome trace-event JSON Perfetto accepts.
	code, chrome := doJSON(t, http.MethodGet, ts2.URL+"/debug/trace/"+id+"?format=chrome", nil)
	if code != http.StatusOK {
		t.Fatalf("chrome export after restart: status %d (%v)", code, chrome)
	}
	if chrome["displayTimeUnit"] != "ms" {
		t.Errorf("displayTimeUnit = %v", chrome["displayTimeUnit"])
	}
	events, ok := chrome["traceEvents"].([]any)
	if !ok || len(events) == 0 {
		t.Fatalf("traceEvents = %v", chrome["traceEvents"])
	}
	ev0, _ := events[0].(map[string]any)
	if ev0["ph"] != "X" || ev0["pid"].(float64) != 1 {
		t.Errorf("event shape: %v", ev0)
	}
}

// holdSubmitted is a slog handler that stops the submit handler at its
// "job submitted" log line — the first thing it does after SubmitWith
// returns — and runs hold with the new job's id before letting it go on.
type holdSubmitted struct {
	slog.Handler
	hold func(jobID string)
}

func (h holdSubmitted) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == "job submitted" {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "job" {
				h.hold(a.Value.String())
			}
			return true
		})
	}
	return h.Handler.Handle(ctx, r)
}

// journalRecords decodes every line of the run-ledger file under dir.
func journalRecords(t *testing.T, dir string) []ledger.Record {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []ledger.Record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec ledger.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("ledger line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestRunLedgerJobDoneBeforeSubmitReturns pins the ordering a tiny job
// can hit on its own: the job finishes, and its OnDone hook writes its
// record, while the handler that submitted it has not yet got past
// SubmitWith's return. The record must already be complete, and the
// file must hold exactly one record for it. A sweep run alongside adds
// exactly one sweep record and none for its shard jobs.
func TestRunLedgerJobDoneBeforeSubmitReturns(t *testing.T) {
	dir := t.TempDir()
	var s *server
	recorded := make(chan ledger.Record, 1)
	hold := func(jobID string) {
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			if rec, ok, _ := s.ledger.Get(jobID); ok {
				recorded <- rec
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		close(recorded)
	}
	s, err := newServerWith(serverConfig{
		workers: 2, queueDepth: 16, cacheSize: 32, dataDir: dir,
		logger: slog.New(holdSubmitted{Handler: slog.NewTextHandler(io.Discard, nil), hold: hold}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.close()
	})

	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{"experiment": "fig9", "quick": true})
	if code != http.StatusAccepted {
		t.Fatalf("POST job: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	rec, ok := <-recorded
	if !ok {
		t.Fatal("the job's record never landed while its submit handler was held")
	}
	if rec.RunID != id || rec.Kind != "job" || rec.Name != "fig9" || rec.State != "done" {
		t.Errorf("record identity: %+v", rec)
	}
	if rec.SpecHash == "" || rec.Seed == 0 || len(rec.Spec) == 0 {
		t.Errorf("record lost its submit-side provenance: hash=%q seed=%d spec=%s", rec.SpecHash, rec.Seed, rec.Spec)
	}

	code, out = doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", tinySweep)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep: status %d (%v)", code, out)
	}
	sweepID, _ := out["id"].(string)
	pollSweepDone(t, ts.URL, sweepID, 2*time.Minute)
	pollRunTotal(t, ts.URL, "?kind=sweep", 1)

	kinds := map[string]int{}
	for _, r := range journalRecords(t, dir) {
		kinds[r.Kind]++
		if r.Kind == "job" && r.RunID != id {
			t.Errorf("unexpected job record %s (%s)", r.RunID, r.Name)
		}
	}
	if kinds["job"] != 1 || kinds["sweep"] != 1 || len(kinds) != 2 {
		t.Errorf("ledger file holds %v records by kind, want one job and one sweep", kinds)
	}
}

// TestRunLedgerExperimentSweepRecord: an experiment sweep's run record
// is named by its experiment, so the experiment= filter lists it.
func TestRunLedgerExperimentSweepRecord(t *testing.T) {
	_, ts := newLedgerServer(t, t.TempDir())
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{
		"experiment": "fig2", "samples": []int{200}, "seed": 7,
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	if sw := pollSweepDone(t, ts.URL, id, 2*time.Minute); sw["state"] != "done" {
		t.Fatalf("sweep finished as %v", sw["state"])
	}
	listing := pollRunTotal(t, ts.URL, "?experiment=fig2", 1)
	runs, _ := listing["runs"].([]any)
	entry, _ := runs[0].(map[string]any)
	if entry["run_id"] != id || entry["kind"] != "sweep" || entry["name"] != "fig2" {
		t.Errorf("experiment=fig2 listing entry: %v", entry)
	}
}

// TestRunLedgerSweepRecord checks the one-record-per-sweep shape: shard
// provenance with derived per-point seeds, samples summed over computed
// shards, the kind/experiment filters, and the sweep-rooted span tree.
func TestRunLedgerSweepRecord(t *testing.T) {
	_, ts := newLedgerServer(t, t.TempDir())

	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", tinySweep)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	sw := pollSweepDone(t, ts.URL, id, 2*time.Minute)
	if sw["state"] != "done" {
		t.Fatalf("sweep finished as %v", sw["state"])
	}

	listing := pollRunTotal(t, ts.URL, "?kind=sweep", 1)
	runs, _ := listing["runs"].([]any)
	entry, _ := runs[0].(map[string]any)
	if entry["run_id"] != id || entry["kind"] != "sweep" || entry["name"] != "chain3sigma" {
		t.Errorf("sweep listing entry: %v", entry)
	}

	// The experiment filter matches the kernel id for sweep records.
	filtered := pollRunTotal(t, ts.URL, "?experiment=chain3sigma", 1)
	if filtered["total"].(float64) != 1 {
		t.Errorf("experiment filter total = %v", filtered["total"])
	}
	if code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/runs?kind=banana", nil); code != http.StatusBadRequest || errCode(out) != "invalid_query" {
		t.Errorf("kind=banana: %d %v", code, out)
	}

	code, rec := doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET sweep run: status %d", code)
	}
	if rec["seed"].(float64) != 20120603 {
		t.Errorf("sweep seed = %v", rec["seed"])
	}
	shards, _ := rec["shards"].([]any)
	if len(shards) != 3 {
		t.Fatalf("%d shard records, want 3", len(shards))
	}
	for _, item := range shards {
		shard, _ := item.(map[string]any)
		if shard["state"] != "done" {
			t.Errorf("shard %v state %v", shard["index"], shard["state"])
		}
		if seed, _ := shard["seed"].(float64); seed == 0 {
			t.Errorf("shard %v has no derived seed", shard["index"])
		}
		if jid, _ := shard["job_id"].(string); jid == "" {
			t.Errorf("shard %v has no job id", shard["index"])
		}
	}
	// 3 computed shards × 150 samples each.
	if n, _ := rec["samples"].(float64); n != 450 {
		t.Errorf("samples = %v, want 450", rec["samples"])
	}
	// The persisted trace is sweep-rooted: one tree whose root carries
	// the sweep id, with every shard span nested beneath it.
	trace, _ := rec["trace"].(map[string]any)
	if trace == nil {
		t.Fatal("sweep record has no trace")
	}
	root, _ := trace["root"].(map[string]any)
	if root == nil || root["name"] != id {
		t.Fatalf("trace root = %v, want span named %s", root, id)
	}
	children, _ := root["children"].([]any)
	shardSpans := 0
	for _, item := range children {
		child, _ := item.(map[string]any)
		if name, _ := child["name"].(string); strings.HasPrefix(name, "sweep/"+id+"/shard/") {
			shardSpans++
		}
	}
	if shardSpans != 3 {
		t.Errorf("%d shard spans under the sweep root, want 3", shardSpans)
	}
}

// TestRunLedgerProfileCapture opts one submission into profiling and
// expects pprof files on disk next to the ledger, listed in the record.
func TestRunLedgerProfileCapture(t *testing.T) {
	dir := t.TempDir()
	_, ts := newLedgerServer(t, dir)

	body := map[string]any{
		"experiment": "fig4",
		"config": map[string]any{
			"seed": 12345, "circuit_samples": 50, "chip_samples": 120, "search_samples": 50,
		},
		"profile": true,
	}
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	pollDone(t, ts.URL, id, 2*time.Minute)
	pollRunTotal(t, ts.URL, "", 1)

	code, rec := doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET run: status %d", code)
	}
	profiles, _ := rec["profiles"].([]any)
	if len(profiles) == 0 {
		t.Fatal("record lists no profiles")
	}
	sawHeap := false
	for _, item := range profiles {
		rel, _ := item.(string)
		if strings.HasSuffix(rel, ".heap.pprof") {
			sawHeap = true
		}
		info, err := os.Stat(filepath.Join(dir, rel))
		if err != nil {
			t.Errorf("profile %s: %v", rel, err)
		} else if info.Size() == 0 {
			t.Errorf("profile %s is empty", rel)
		}
	}
	if !sawHeap {
		t.Errorf("no heap profile among %v", profiles)
	}
}

// TestTraceQueuedJobTyped pins the job_not_started envelope: a job that
// has not left the queue has no trace yet, and the API says so rather
// than claiming the id is unknown.
func TestTraceQueuedJobTyped(t *testing.T) {
	s := plainServer(t, 1, 4, 8)
	ts := httptest.NewServer(s.handler())
	defer func() {
		ts.Close()
		s.close()
	}()

	release := make(chan struct{})
	blocker := func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := s.jobs.Submit("blocker", blocker); err != nil {
		t.Fatal(err)
	}
	queued, err := s.jobs.Submit("queued", func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}

	code, out := doJSON(t, http.MethodGet, ts.URL+"/debug/trace/"+queued, nil)
	if code != http.StatusNotFound || errCode(out) != "job_not_started" {
		t.Errorf("queued trace: %d %v", code, out)
	}
	close(release)
	pollDone(t, ts.URL, queued, 30*time.Second)
}

// TestLedgerDisabledEnvelopes pins the typed refusals of a daemon run
// without -data-dir: /v1/runs is a ledger_disabled 404 and profile
// submissions are rejected up front.
func TestLedgerDisabledEnvelopes(t *testing.T) {
	_, ts := newTestServer(t)

	for _, path := range []string{"/v1/runs", "/v1/runs/deadbeef"} {
		code, out := doJSON(t, http.MethodGet, ts.URL+path, nil)
		if code != http.StatusNotFound || errCode(out) != "ledger_disabled" {
			t.Errorf("GET %s: %d %v", path, code, out)
		}
	}
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]any{
		"experiment": "fig4", "quick": true, "profile": true,
	})
	if code != http.StatusBadRequest || errCode(out) != "profiling_disabled" {
		t.Errorf("profile without ledger: %d %v", code, out)
	}
}

// TestRunNotFound pins run_not_found on a live (but empty) ledger.
func TestRunNotFound(t *testing.T) {
	_, ts := newLedgerServer(t, t.TempDir())
	code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/runs/deadbeef", nil)
	if code != http.StatusNotFound || errCode(out) != "run_not_found" {
		t.Errorf("unknown run: %d %v", code, out)
	}
}
