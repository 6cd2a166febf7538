package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sstaSweep is an analytically-answered p99 sweep over the 22nm node's
// near-threshold band.
var sstaSweep = map[string]any{
	"metric":  "p99chipclock",
	"mode":    "ssta",
	"nodes":   []string{"22nm"},
	"vdd":     map[string]any{"from": 0.50, "to": 0.60, "step": 0.05},
	"samples": []int{50},
	"seed":    20120603,
}

// TestSweepSSTAEndToEnd drives an ssta-mode sweep through the v1
// surface: the mode is echoed in the normalized spec, every merged
// point carries the ssta estimator stamp, and the analytic-path
// counters appear on /metrics.
func TestSweepSSTAEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", sstaSweep)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d (%v)", code, out)
	}
	spec, _ := out["spec"].(map[string]any)
	if spec["mode"] != "ssta" {
		t.Fatalf("mode not echoed in normalized spec: %v", spec)
	}

	id, _ := out["id"].(string)
	sw := pollSweepDone(t, ts.URL, id, 2*time.Minute)
	if sw["state"] != "done" {
		t.Fatalf("sweep finished as %v: %v", sw["state"], sw["shards"])
	}
	points, _ := sw["results"].([]any)
	if len(points) != 3 {
		t.Fatalf("%d merged points", len(points))
	}
	for i, item := range points {
		pt, _ := item.(map[string]any)
		if pt["mode"] != "ssta" {
			t.Errorf("point %d mode = %v, want ssta", i, pt["mode"])
		}
		// p99 chip clock in FO4 at deep NTV: tens of FO4.
		if v, _ := pt["value"].(float64); v < 10 || v > 500 {
			t.Errorf("point %d value %v FO4 implausible", i, pt["value"])
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"ntvsim_ssta_evals_total",
		"ntvsim_ssta_law_builds_total",
		"ntvsim_auto_mc_refined_total",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metric %s missing from /metrics", want)
		}
	}
}

// TestSweepModeUnsupportedEnvelope pins the typed rejection for the
// estimator knob on kernels without an analytic law.
func TestSweepModeUnsupportedEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []map[string]any{
		{"metric": "yield_is", "mode": "ssta"},
		{"metric": "tailyield", "sampler": "is", "mode": "auto", "auto_threshold": 100},
	} {
		code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", body)
		if code != http.StatusBadRequest || errCode(out) != "mode_unsupported" {
			t.Errorf("POST %v: %d %v, want 400 mode_unsupported", body, code, out)
		}
	}
	// Garden-variety validation failures keep the generic envelope.
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{
		"metric": "chain3sigma", "mode": "bogus",
	})
	if code != http.StatusBadRequest || errCode(out) != "invalid_sweep" {
		t.Errorf("bogus mode: %d %v, want 400 invalid_sweep", code, out)
	}
}

// TestSweepKernelRetiredEnvelope pins the typed answer to a retired
// metric on both submission paths: 410 kernel_retired, its message
// naming the replacement. The coordinator validates before it journals,
// so the rejected sweep leaves no journal entry. The retired kernel's
// old sampler mapping is gone too: p99chipclock has no
// importance-sampling variant.
func TestSweepKernelRetiredEnvelope(t *testing.T) {
	_, standalone := newTestServer(t)
	co, coordinator := newCoordinatorServer(t, t.TempDir())
	entries := co.cluster.Status().JournalEntries
	for _, ts := range []*httptest.Server{standalone, coordinator} {
		for _, body := range []map[string]any{
			{"metric": "p99chipclock_is"},
			{"metric": "p99chipclock_is", "mode": "ssta"},
		} {
			code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", body)
			env, _ := out["error"].(map[string]any)
			msg, _ := env["message"].(string)
			if code != http.StatusGone || errCode(out) != "kernel_retired" ||
				!strings.Contains(msg, `metric "p99chipclock" with mode "ssta"`) {
				t.Errorf("POST %v: %d %v, want 410 kernel_retired naming the replacement", body, code, out)
			}
		}
		code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{"metric": "p99chipclock", "sampler": "is"})
		if code != http.StatusBadRequest || errCode(out) != "invalid_sweep" {
			t.Errorf("p99chipclock + sampler is: %d %v, want 400 invalid_sweep", code, out)
		}
	}
	if got := co.cluster.Status().JournalEntries; got != entries {
		t.Errorf("rejected sweeps reached the journal: %d entries, was %d", got, entries)
	}
}

// TestKernelModesPayload: GET /v1/kernels advertises which estimators
// each kernel supports, so clients can gate the mode knob without
// probing for rejections.
func TestKernelModesPayload(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := doJSON(t, http.MethodGet, ts.URL+"/v1/kernels", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	objs, _ := out["kernels"].([]any)
	modesOf := func(id string) []string {
		for _, item := range objs {
			obj, _ := item.(map[string]any)
			if obj["id"] != id {
				continue
			}
			raw, _ := obj["modes"].([]any)
			var modes []string
			for _, m := range raw {
				s, _ := m.(string)
				modes = append(modes, s)
			}
			return modes
		}
		t.Fatalf("kernel %q missing", id)
		return nil
	}
	for _, id := range []string{"chain3sigma", "gate3sigma", "p99chipclock", "tailyield"} {
		if got := strings.Join(modesOf(id), ","); got != "mc,ssta,auto" {
			t.Errorf("%s modes = %q, want mc,ssta,auto", id, got)
		}
	}
	if got := strings.Join(modesOf("yield_is"), ","); got != "mc" {
		t.Errorf("yield_is modes = %q, want mc", got)
	}
}

// TestRunLedgerModeRecord: sweep run records carry the requested
// estimator mode, and auto-mode records count how many grid points the
// decision band refined with Monte-Carlo shards.
func TestRunLedgerModeRecord(t *testing.T) {
	_, ts := newLedgerServer(t, t.TempDir())

	// The 22nm analytic p99 values are ≈79.1/72.3/68.1 FO4 across this
	// band; a ±4 % band around 72.3 refines exactly the middle point.
	code, out := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", map[string]any{
		"metric":         "p99chipclock",
		"mode":           "auto",
		"auto_threshold": 72.3,
		"auto_band":      0.04,
		"nodes":          []string{"22nm"},
		"vdd":            map[string]any{"from": 0.50, "to": 0.60, "step": 0.05},
		"samples":        []int{300},
		"seed":           20120603,
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	sw := pollSweepDone(t, ts.URL, id, 2*time.Minute)
	if sw["state"] != "done" {
		t.Fatalf("sweep finished as %v", sw["state"])
	}

	pollRunTotal(t, ts.URL, "?kind=sweep", 1)
	code, rec := doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET run: status %d", code)
	}
	if rec["mode"] != "auto" {
		t.Errorf("record mode = %v, want auto", rec["mode"])
	}
	if n, _ := rec["refined"].(float64); n != 1 {
		t.Errorf("record refined = %v, want 1", rec["refined"])
	}

	// A pure-ssta sweep records its mode and no refinement count.
	code, out = doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", sstaSweep)
	if code != http.StatusAccepted {
		t.Fatalf("POST ssta: status %d (%v)", code, out)
	}
	id2, _ := out["id"].(string)
	if sw := pollSweepDone(t, ts.URL, id2, 2*time.Minute); sw["state"] != "done" {
		t.Fatalf("ssta sweep finished as %v", sw["state"])
	}
	pollRunTotal(t, ts.URL, "?kind=sweep", 2)
	code, rec = doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+id2, nil)
	if code != http.StatusOK {
		t.Fatalf("GET ssta run: status %d", code)
	}
	if rec["mode"] != "ssta" {
		t.Errorf("ssta record mode = %v", rec["mode"])
	}
	if _, present := rec["refined"]; present {
		t.Errorf("ssta record carries refined = %v", rec["refined"])
	}
}
