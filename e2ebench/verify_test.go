package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/jobs"
	"github.com/ntvsim/ntvsim/internal/resultcache"
	"github.com/ntvsim/ntvsim/internal/sweep"
)

// servedBy runs req on an in-process sweep engine and renders the
// merged result the way the daemon's GET /v1/sweeps/{id} does.
func servedBy(t *testing.T, req request) served {
	t.Helper()
	m := jobs.NewManager(2, 64)
	defer m.Close()
	eng := sweep.NewEngine(m, resultcache.New[experiments.Result](256), nil)
	sw, err := eng.Submit(*req.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sw.Done():
	case <-time.After(time.Minute):
		t.Fatal("sweep did not finish")
	}
	res, ok := sw.Result()
	if !ok {
		t.Fatalf("sweep ended %s", sw.Snapshot().State)
	}
	data, err := json.MarshalIndent(res.JSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return served{Render: res.Render(), Data: data}
}

func TestCachedPoolEntryVerifiesAgainstRunSerial(t *testing.T) {
	pool := cachedPool(1)
	req := pool[len(pool)-1] // the fig2 experiment sweep: the cheapest entry
	if req.Sweep == nil || req.Sweep.Experiment != "fig2" {
		t.Fatalf("pool entry is %s, want the fig2 experiment sweep", req.name())
	}
	ref, err := referenceOf(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got := servedBy(t, req)
	if ok, err := ref.matches(got); err != nil || !ok {
		t.Fatalf("served result does not match RunSerial (err %v)", err)
	}

	// A served result that differs anywhere is caught.
	tampered := got
	tampered.Render += " "
	if ok, _ := ref.matches(tampered); ok {
		t.Error("a changed render matched")
	}
	var data map[string]any
	if err := json.Unmarshal(got.Data, &data); err != nil {
		t.Fatal(err)
	}
	data["seed"] = 1.0
	tampered = got
	if tampered.Data, err = json.Marshal(data); err != nil {
		t.Fatal(err)
	}
	if ok, _ := ref.matches(tampered); ok {
		t.Error("changed data matched")
	}

	// The verifier marks the study failed and keeps the mismatch out of
	// the digest; a faithful study digests reproducibly.
	outs := func(s served) []outcome {
		return []outcome{{Index: 0, Requested: []request{req}, IDs: []string{"sw1"}, Results: []served{s}}}
	}
	v := &verifier{refs: map[string]reference{}}
	good, err := v.verify(context.Background(), outs(got))
	if err != nil || good.Verified != 1 || good.Mismatches != 0 {
		t.Fatalf("faithful study: %+v, %v", good, err)
	}
	again, _ := (&verifier{refs: map[string]reference{}}).verify(context.Background(), outs(got))
	if again.Digest != good.Digest {
		t.Error("the digest of one study is not reproducible")
	}
	bad := outs(tampered)
	check, err := v.verify(context.Background(), bad)
	if err != nil || check.Mismatches != 1 || bad[0].Err == "" {
		t.Errorf("tampered study: %+v, err %v, study error %q", check, err, bad[0].Err)
	}
	if v.computed != 1 {
		t.Errorf("reference computed for %d studies, want 1 (cached across calls)", v.computed)
	}
}

func TestAutoPoolEntryRefinesAThirdOfItsGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates 14 Monte-Carlo points")
	}
	var req request
	for _, r := range cachedPool(1) {
		if r.Sweep != nil && r.Sweep.Mode == sweep.ModeAuto {
			req = r
		}
	}
	res, err := sweep.RunSerial(context.Background(), *req.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	refined := 0
	for _, p := range res.Points {
		if p.Mode == sweep.ModeMC {
			refined++
		}
	}
	if len(res.Points) != 42 || refined != 14 {
		t.Errorf("auto entry refines %d of %d points, want 14 of 42", refined, len(res.Points))
	}
}

// TestSmokeAgainstBuiltDaemon runs two studies of every workload
// against a daemon built from this checkout. It builds and starts real
// processes, so it runs only with NTVSIMD_SMOKE=1.
func TestSmokeAgainstBuiltDaemon(t *testing.T) {
	if os.Getenv("NTVSIMD_SMOKE") != "1" {
		t.Skip("set NTVSIMD_SMOKE=1 to build ntvsimd and drive it")
	}
	ctx := context.Background()
	repo, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(ctx, repo)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, w := range workloads {
		d, _, err := e.setup(ctx, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		win, err := runWindow(ctx, d, w, 1, time.Hour, 2, 0, false)
		d.stop()
		if err != nil {
			t.Fatal(err)
		}
		check, err := (&verifier{refs: map[string]reference{}}).verify(ctx, win.outs)
		if err != nil {
			t.Fatal(err)
		}
		var r report
		r.tally(win)
		if r.Attempted != 2 || r.Failed != 0 || check.Verified != 1 || check.Mismatches != 0 || win.httpErrors != 0 {
			t.Errorf("%s: %d studies, %d failed, %d verified, %d mismatched, %d HTTP errors: %v",
				w.Name, r.Attempted, r.Failed, check.Verified, check.Mismatches, win.httpErrors, r.Errors)
		}
	}
}
