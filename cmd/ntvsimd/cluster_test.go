package main

// Daemon-level tests of the v1 surface redesign and cluster mode: the
// GET /v1 index generated from the route table, the cluster_disabled
// and deprecated_parameter golden envelopes, kernels pagination parity,
// and an end-to-end coordinator-role daemon driven by real workers —
// including a coordinator restart resuming from the shard journal.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/cluster"
	"github.com/ntvsim/ntvsim/internal/jobs"
	"github.com/ntvsim/ntvsim/internal/ledger"
	"github.com/ntvsim/ntvsim/internal/sweep"
)

// testPoll keeps test workers responsive without busy-waiting.
var testPoll = jobs.Backoff{Base: 2 * time.Millisecond, Max: 25 * time.Millisecond, Seed: 0xd41}

// tinyClusterSpec mirrors the internal cluster suite's 6-shard spec so
// daemon-level byte-identity uses the same serial reference.
func tinyClusterSpec() sweep.Spec {
	return sweep.Spec{
		Metric:  "chain3sigma",
		Nodes:   []string{"90nm GP", "22nm PTM HP"},
		Vdd:     &sweep.VddAxis{From: 0.50, To: 0.60, Step: 0.05},
		Samples: []int{200},
		Seed:    4242,
	}
}

// newCoordinatorServer boots an in-process coordinator-role server on a
// fresh (or given) data dir.
func newCoordinatorServer(t *testing.T, dataDir string) (*server, *httptest.Server) {
	t.Helper()
	return newCoordinatorServerRetaining(t, dataDir, 0)
}

// newCoordinatorServerRetaining is newCoordinatorServer keeping retain
// finished sweeps and jobs each (0: the default bound).
func newCoordinatorServerRetaining(t *testing.T, dataDir string, retain int) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServerWith(serverConfig{
		workers: 2, queueDepth: 16, cacheSize: 32,
		dataDir: dataDir, role: "coordinator", leaseTTL: time.Hour, retain: retain,
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

// TestIndexCoversEveryRoute pins the anti-drift property of GET /v1:
// every route in the server's registration table resolves on the mux,
// and every /v1 path appears in the served index with methods and a
// since revision.
func TestIndexCoversEveryRoute(t *testing.T) {
	s, ts := newTestServer(t)

	// Every table row must actually be registered: the mux resolves the
	// concrete method+path to a non-404 handler.
	for _, rt := range s.routes {
		path := strings.NewReplacer("{id}", "x").Replace(rt.pattern)
		req := httptest.NewRequest(rt.method, path, nil)
		if _, pattern := s.mux.Handler(req); pattern == "" {
			t.Errorf("route %s %s from the table is not registered on the mux", rt.method, rt.pattern)
		}
	}

	code, out := doJSON(t, http.MethodGet, ts.URL+"/v1", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1: status %d", code)
	}
	if out["service"] != "ntvsimd" || out["role"] != "standalone" {
		t.Errorf("index identity: service=%v role=%v", out["service"], out["role"])
	}
	if v, _ := out["api_version"].(float64); int(v) != apiVersion {
		t.Errorf("api_version = %v, want %d", out["api_version"], apiVersion)
	}
	if v, _ := out["cluster_protocol_version"].(float64); int(v) != cluster.ProtocolVersion {
		t.Errorf("cluster_protocol_version = %v, want %d", out["cluster_protocol_version"], cluster.ProtocolVersion)
	}

	routes, _ := out["routes"].([]any)
	indexed := map[string]map[string]any{}
	for _, item := range routes {
		obj, _ := item.(map[string]any)
		path, _ := obj["path"].(string)
		indexed[path] = obj
	}
	for _, rt := range s.routes {
		obj := indexed[rt.pattern]
		if obj == nil {
			t.Errorf("registered route %s missing from the GET /v1 index", rt.pattern)
			continue
		}
		methods, _ := obj["methods"].([]any)
		found := false
		for _, m := range methods {
			if m == rt.method {
				found = true
			}
		}
		if !found {
			t.Errorf("index entry for %s lacks method %s: %v", rt.pattern, rt.method, methods)
		}
		if since, _ := obj["since"].(float64); since < 1 || int(since) > apiVersion {
			t.Errorf("index entry for %s has since=%v", rt.pattern, obj["since"])
		}
	}
	// And nothing is indexed that was never registered.
	table := map[string]bool{}
	for _, rt := range s.routes {
		table[rt.pattern] = true
	}
	for path := range indexed {
		if !table[path] {
			t.Errorf("index lists %s, which is not in the registration table", path)
		}
	}
}

// TestClusterDisabledGolden pins the exact envelope bytes of the
// cluster routes on a standalone server — part of the stable error-code
// catalogue.
func TestClusterDisabledGolden(t *testing.T) {
	_, ts := newTestServer(t)
	const want = "{\n  \"error\": {\n    \"code\": \"cluster_disabled\",\n    \"message\": \"cluster mode disabled; start ntvsimd with -role coordinator (and -data-dir) to serve shards\"\n  }\n}\n"
	code, body := getBody(t, ts.URL+"/v1/cluster")
	if code != http.StatusNotFound {
		t.Fatalf("GET /v1/cluster on standalone: status %d, want 404", code)
	}
	if body != want {
		t.Errorf("cluster_disabled envelope drifted:\ngot:  %q\nwant: %q", body, want)
	}
	for _, path := range []string{"/v1/cluster/lease", "/v1/cluster/heartbeat", "/v1/cluster/complete"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || string(b) != want {
			t.Errorf("POST %s on standalone: status %d body %q", path, resp.StatusCode, b)
		}
	}
}

// TestDeprecatedParameterGolden pins the exact envelope bytes of the
// retired experiments format=ids parameter.
func TestDeprecatedParameterGolden(t *testing.T) {
	_, ts := newTestServer(t)
	const want = "{\n  \"error\": {\n    \"code\": \"deprecated_parameter\",\n    \"message\": \"format=ids was deprecated in v1 revision 4 and retired in revision 9; the default listing carries id fields\"\n  }\n}\n"
	code, body := getBody(t, ts.URL+"/v1/experiments?format=ids")
	if code != http.StatusBadRequest {
		t.Fatalf("format=ids: status %d, want 400", code)
	}
	if body != want {
		t.Errorf("deprecated_parameter envelope drifted:\ngot:  %q\nwant: %q", body, want)
	}
}

// TestKernelsPagination pins the limit/offset/total envelope parity of
// GET /v1/kernels with the other listings.
func TestKernelsPagination(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/kernels", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	all, _ := out["kernels"].([]any)
	total, _ := out["total"].(float64)
	if int(total) != len(all) || len(all) == 0 {
		t.Fatalf("unpaginated listing: %d kernels, total %v", len(all), out["total"])
	}
	if lim, _ := out["limit"].(float64); int(lim) != defaultJobListLimit {
		t.Errorf("default limit = %v, want %d", out["limit"], defaultJobListLimit)
	}

	code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/kernels?limit=2&offset=1", nil)
	if code != http.StatusOK {
		t.Fatalf("paginated: status %d", code)
	}
	pg, _ := out["kernels"].([]any)
	if len(pg) != 2 {
		t.Fatalf("limit=2 returned %d kernels", len(pg))
	}
	if tot, _ := out["total"].(float64); tot != total {
		t.Errorf("paginated total %v != unpaginated %v", tot, total)
	}
	// Registry order is the pagination order: page [1,3) is the
	// unpaginated listing's second and third entries.
	for i, item := range pg {
		want, _ := all[i+1].(map[string]any)
		got, _ := item.(map[string]any)
		if got["id"] != want["id"] {
			t.Errorf("page entry %d = %v, want %v", i, got["id"], want["id"])
		}
	}

	if code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/kernels?limit=0", nil); code != http.StatusBadRequest || errCode(out) != "invalid_query" {
		t.Errorf("limit=0: status %d code %q, want 400 invalid_query", code, errCode(out))
	}
	if code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/kernels?state=done", nil); code != http.StatusBadRequest || errCode(out) != "invalid_query" {
		t.Errorf("state filter: status %d code %q, want 400 invalid_query", code, errCode(out))
	}
}

// TestCoordinatorDaemonEndToEnd drives a coordinator-role server purely
// over HTTP: a sweep POSTed to the redesigned surface fans out to two
// real workers and merges byte-identical to the serial run, with worker
// attribution in the sweep payload and the run-ledger record.
func TestCoordinatorDaemonEndToEnd(t *testing.T) {
	serial, err := sweep.RunSerial(context.Background(), tinyClusterSpec())
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newCoordinatorServer(t, t.TempDir())
	if s.cluster == nil {
		t.Fatal("coordinator role left s.cluster nil")
	}

	code, out := doJSON(t, http.MethodGet, ts.URL+"/v1", nil)
	if code != http.StatusOK || out["role"] != "coordinator" {
		t.Fatalf("GET /v1 on coordinator: %d %v", code, out["role"])
	}

	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	for _, id := range []string{"wa", "wb"} {
		w := &cluster.Worker{Coordinator: ts.URL, ID: id, MaxShards: 2, Poll: testPoll}
		go w.Run(wctx)
	}

	code, out = doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", tinyClusterSpec())
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)

	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET sweep: status %d", code)
		}
		if state, _ := out["state"].(string); state == "done" {
			break
		} else if state == "failed" || state == "cancelled" {
			t.Fatalf("sweep finished as %s: %v", state, out["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished: %v", out)
		}
		time.Sleep(10 * time.Millisecond)
	}

	res, _ := out["result"].(map[string]any)
	if res == nil {
		t.Fatal("done sweep has no result payload")
	}
	if render, _ := res["render"].(string); render != serial.Render() {
		t.Fatal("coordinator-daemon merge is not byte-identical to sweep.RunSerial")
	}
	shards, _ := out["shards"].([]any)
	if len(shards) != 6 {
		t.Fatalf("sweep payload lists %d shards, want 6", len(shards))
	}
	for _, item := range shards {
		sh, _ := item.(map[string]any)
		if w, _ := sh["worker"].(string); w != "wa" && w != "wb" {
			t.Errorf("shard %v attributed to %q, want wa or wb", sh["index"], w)
		}
	}

	// Coordinator status over the public surface.
	code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/cluster: status %d", code)
	}
	if v, _ := out["protocol_version"].(float64); int(v) != cluster.ProtocolVersion {
		t.Errorf("status protocol_version = %v", out["protocol_version"])
	}
	if q, _ := out["queued"].(float64); q != 0 {
		t.Errorf("done sweep left %v shards queued", out["queued"])
	}

	// The run ledger attributes the sweep to both workers.
	deadline = time.Now().Add(15 * time.Second)
	for {
		code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+id, nil)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run record for sweep %s never appeared", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
	workers, _ := out["workers"].([]any)
	if len(workers) == 0 {
		t.Fatalf("run record has no worker attribution: %v", out["workers"])
	}
	for _, w := range workers {
		if w != "wa" && w != "wb" {
			t.Errorf("run record attributes foreign worker %v", w)
		}
	}
}

// TestCoordinatorDaemonRestartReplay kills a coordinator-role server
// mid-sweep and boots a fresh one on the same data dir: the journal
// resumes the sweep, workers finish the remainder, and the merge is
// byte-identical to the serial run.
func TestCoordinatorDaemonRestartReplay(t *testing.T) {
	serial, err := sweep.RunSerial(context.Background(), tinyClusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Life 1: submit the sweep, let one worker upload at least one shard
	// result, then kill the daemon. No t.Cleanup registration here — this
	// life is closed by hand mid-test.
	s1, err := newServerWith(serverConfig{
		workers: 2, queueDepth: 16, cacheSize: 32,
		dataDir: dir, role: "coordinator", leaseTTL: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.handler())
	code, out := doJSON(t, http.MethodPost, ts1.URL+"/v1/sweeps", tinyClusterSpec())
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)

	w1ctx, stopW1 := context.WithCancel(context.Background())
	go (&cluster.Worker{Coordinator: ts1.URL, ID: "early", MaxShards: 1, Poll: testPoll}).Run(w1ctx)
	deadline := time.Now().Add(60 * time.Second)
	for {
		snap := s1.cluster.Status()
		if snap.JournalEntries >= 2 { // sweep intent + at least one shard result
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard result reached the journal before the crash")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopW1()
	ts1.Close()
	s1.close() // seals the journal — the in-memory sweep state dies with the process

	// Life 2: replay resumes the sweep; fresh workers finish it.
	s2, ts2 := newCoordinatorServer(t, dir)
	if _, ok := s2.sweeps.Get(id); !ok {
		t.Fatalf("journal replay did not restore sweep %s", id)
	}
	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	for _, wid := range []string{"late1", "late2"} {
		go (&cluster.Worker{Coordinator: ts2.URL, ID: wid, MaxShards: 2, Poll: testPoll}).Run(wctx)
	}
	deadline = time.Now().Add(2 * time.Minute)
	for {
		code, out = doJSON(t, http.MethodGet, ts2.URL+"/v1/sweeps/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET replayed sweep: status %d", code)
		}
		if state, _ := out["state"].(string); state == "done" {
			break
		} else if state == "failed" || state == "cancelled" {
			t.Fatalf("replayed sweep finished as %s: %v", state, out["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed sweep never finished: %v", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, _ := out["result"].(map[string]any)
	if res == nil {
		t.Fatal("replayed sweep has no result payload")
	}
	if render, _ := res["render"].(string); render != serial.Render() {
		t.Fatal("post-restart merge is not byte-identical to sweep.RunSerial")
	}
	restored := 0
	shards, _ := out["shards"].([]any)
	for _, item := range shards {
		sh, _ := item.(map[string]any)
		if r, _ := sh["restored"].(bool); r {
			restored++
		}
	}
	if restored == 0 {
		t.Error("no shard marked restored: the journal contributed nothing")
	}

	// The resumed sweep still lands in the run ledger (the recorder is
	// re-attached on boot).
	deadline = time.Now().Add(15 * time.Second)
	for {
		code, rec := doJSON(t, http.MethodGet, ts2.URL+"/v1/runs/"+id, nil)
		if code == http.StatusOK {
			if rec["state"] != "done" {
				t.Fatalf("resumed sweep recorded as %v", rec["state"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed sweep never reached the run ledger")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	ts2.Close()
	s2.close() // idempotent: the cleanup newCoordinatorServer registered closes it again

	// Lives 3–5: reboots after the sweep is recorded restore it from the
	// journal as a finished sweep, and must not record it again. Whether
	// the restored sweep is still running when the server scans it is a
	// race, so reboot several times.
	for life := 3; life <= 5; life++ {
		s, ts := newCoordinatorServer(t, dir)
		deadline = time.Now().Add(15 * time.Second)
		for {
			code, out = doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+id, nil)
			if state, _ := out["state"].(string); code == http.StatusOK && state == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("life %d: restored sweep never finished: %d %v", life, code, out)
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(100 * time.Millisecond) // room for a stray recorder to append
		ts.Close()
		s.close()
		n := 0
		for _, rec := range journalRecords(t, dir) {
			if rec.RunID == id {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("life %d: %s holds %d records of sweep %s, want 1", life, ledger.FileName, n, id)
		}
	}

	// Lives 6–8 keep one finished sweep in memory, fewer than the
	// journal holds. Life 6 adds seven sweeps, evaluated by a worker and
	// journaled shard by shard. Then the ledger loses the records of the
	// first four — a crash after the journal's sweep_done and before the
	// ledger append. Life 7 restores all eight complete from the
	// journal: they finish while Replay runs and evict one another at
	// once, and the four the ledger lacks must still be recorded, once
	// each. Life 8 records nothing new.
	s6, ts6 := newCoordinatorServerRetaining(t, dir, 1)
	w6ctx, stopW6 := context.WithCancel(context.Background())
	go (&cluster.Worker{Coordinator: ts6.URL, ID: "life6", MaxShards: 2, Poll: testPoll}).Run(w6ctx)
	ids := []string{id}
	for seed := uint64(1); seed <= 7; seed++ {
		spec := tinyClusterSpec()
		spec.Seed = seed
		code, out := doJSON(t, http.MethodPost, ts6.URL+"/v1/sweeps", spec)
		if code != http.StatusAccepted {
			t.Fatalf("life 6: POST /v1/sweeps: %d %v", code, out)
		}
		next, _ := out["id"].(string)
		pollSweepDone(t, ts6.URL, next, 2*time.Minute)
		waitRecorded(t, s6, next)
		ids = append(ids, next)
	}
	stopW6()
	ts6.Close()
	s6.close()
	lost := map[string]bool{ids[0]: true, ids[1]: true, ids[2]: true, ids[3]: true}
	var kept []byte
	for _, rec := range journalRecords(t, dir) {
		if !lost[rec.RunID] {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(append(kept, line...), '\n')
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ledger.FileName), kept, 0o644); err != nil {
		t.Fatal(err)
	}
	for life := 7; life <= 8; life++ {
		s, ts := newCoordinatorServerRetaining(t, dir, 1)
		waitFor(t, 30*time.Second, "the eight restored sweeps to finish and evict down to one", func() bool {
			held, evicted := s.sweeps.Retention()
			return held == 1 && evicted == 7
		})
		for _, sid := range ids {
			waitRecorded(t, s, sid)
		}
		time.Sleep(100 * time.Millisecond) // room for a stray recorder to append
		ts.Close()
		s.close()
		count := map[string]int{}
		for _, rec := range journalRecords(t, dir) {
			count[rec.RunID]++
		}
		for _, sid := range ids {
			if count[sid] != 1 {
				t.Errorf("life %d: %s holds %d records of sweep %s, want 1", life, ledger.FileName, count[sid], sid)
			}
		}
	}
}

// TestClusterSubmitValidation: a coordinator still rejects invalid
// sweeps with the same typed codes as a standalone server — validation
// happens before the journal write.
func TestClusterSubmitValidation(t *testing.T) {
	s, ts := newCoordinatorServer(t, t.TempDir())
	entries := s.cluster.Status().JournalEntries
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{"metric": "no-such-kernel"})
	if code != http.StatusBadRequest || errCode(out) != "invalid_sweep" {
		t.Fatalf("bad metric: status %d code %q", code, errCode(out))
	}
	code, out = doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{
		"metric": "yield_is", "mode": "ssta",
		"nodes": []string{"90nm GP"}, "vdd": map[string]any{"from": 0.5, "to": 0.5, "step": 0.05},
	})
	if code != http.StatusBadRequest || errCode(out) != "mode_unsupported" {
		t.Fatalf("IS + ssta: status %d code %q", code, errCode(out))
	}
	if got := s.cluster.Status().JournalEntries; got != entries {
		t.Errorf("rejected sweeps reached the journal: %d entries, was %d", got, entries)
	}
}

// TestWorkerFlagPath exercises the worker construction used by main:
// defaults resolve and the worker exits on context cancel even with no
// coordinator to talk to.
func TestWorkerFlagPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &cluster.Worker{Coordinator: "http://127.0.0.1:1", MaxShards: 2, Poll: testPoll}
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("worker exited %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit on cancel")
	}
}

// TestServerRoleValidation pins newServerWith's role checks: a
// coordinator without a data dir and an unknown role both fail fast.
func TestServerRoleValidation(t *testing.T) {
	if _, err := newServerWith(serverConfig{workers: 1, queueDepth: 4, cacheSize: 8, role: "coordinator"}); err == nil || !strings.Contains(err.Error(), "data-dir") {
		t.Fatalf("coordinator without -data-dir: err=%v", err)
	}
	if _, err := newServerWith(serverConfig{workers: 1, queueDepth: 4, cacheSize: 8, role: "observer"}); err == nil || !strings.Contains(err.Error(), "unknown role") {
		t.Fatalf("unknown role: err=%v", err)
	}
}

// TestCoordinatorDrainingPolicy: a draining coordinator grants no new
// leases but still renews heartbeats and accepts completions — workers
// finish what they hold, nothing new starts, every upload is journaled.
func TestCoordinatorDrainingPolicy(t *testing.T) {
	s, ts := newCoordinatorServer(t, t.TempDir())
	if code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", tinyClusterSpec()); code != http.StatusAccepted && code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("submit sweep: status %d (%v)", code, out)
	}

	post := func(path string, in, out any) int {
		t.Helper()
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	lease := func(worker string) []cluster.Grant {
		t.Helper()
		var lr cluster.LeaseResponse
		if code := post("/v1/cluster/lease", cluster.LeaseRequest{
			WorkerID: worker, ProtocolVersion: cluster.ProtocolVersion, MaxShards: 1,
		}, &lr); code != http.StatusOK {
			t.Fatalf("lease: status %d", code)
		}
		return lr.Leases
	}

	// The dispatcher offers shards asynchronously; poll until w1 holds one.
	var held cluster.Grant
	deadline := time.Now().Add(10 * time.Second)
	for {
		if grants := lease("w1"); len(grants) > 0 {
			held = grants[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted within 10s")
		}
		time.Sleep(time.Millisecond)
	}

	s.beginDrain()
	if grants := lease("w2"); len(grants) != 0 {
		t.Fatalf("draining coordinator granted %d leases", len(grants))
	}
	var hb cluster.HeartbeatResponse
	if code := post("/v1/cluster/heartbeat", cluster.HeartbeatRequest{
		WorkerID: "w1", LeaseIDs: []string{held.LeaseID},
	}, &hb); code != http.StatusOK || len(hb.Renewed) != 1 {
		t.Fatalf("heartbeat while draining: status %d renewed %v", code, hb.Renewed)
	}
	sr, retries, err := sweep.EvalShard(context.Background(), held.Spec, held.Point)
	if err != nil {
		t.Fatal(err)
	}
	var cr cluster.CompleteResponse
	if code := post("/v1/cluster/complete", cluster.CompleteRequest{
		WorkerID: "w1", LeaseID: held.LeaseID, Result: sr, Retries: retries,
	}, &cr); code != http.StatusOK || !cr.OK {
		t.Fatalf("complete while draining: status %d ok=%v", code, cr.OK)
	}
}

// TestNewLogger covers the flag-to-logger table main builds on boot.
func TestNewLogger(t *testing.T) {
	for _, level := range []string{"debug", "info", "warn", "error"} {
		for _, format := range []string{"text", "json"} {
			if lg, err := newLogger(format, level); err != nil || lg == nil {
				t.Fatalf("newLogger(%q, %q): %v", format, level, err)
			}
		}
	}
	if _, err := newLogger("text", "loud"); err == nil {
		t.Fatal("unknown level accepted")
	}
	if _, err := newLogger("yaml", "info"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
