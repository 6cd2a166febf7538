package cluster

// End-to-end cluster suite: real Workers over HTTP against a live
// coordinator, with seeded chaos (injected transport faults, a
// SIGKILL-shaped worker death, a black-holed lease batch) and a
// coordinator crash/restart leg. The CI chaos job re-runs this file
// under -race across the NTVSIM_FAULT_SEED matrix.

import (
	"context"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/faults"
	"github.com/ntvsim/ntvsim/internal/jobs"
	"github.com/ntvsim/ntvsim/internal/sweep"
)

// fastPoll keeps test workers responsive without busy-waiting.
var fastPoll = jobs.Backoff{Base: 2 * time.Millisecond, Max: 25 * time.Millisecond, Seed: 0x717e57}

// TestClusterDeterminismChaosWorkers is the tentpole acceptance test:
// a sweep fanned out over N real workers — with injected lease and
// upload transport faults, transient evaluation faults, one worker
// killed mid-run, and a black-holed lease batch that must expire and be
// stolen — merges byte-identical to sweep.RunSerial.
func TestClusterDeterminismChaosWorkers(t *testing.T) {
	serial, err := sweep.RunSerial(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, serial)

	spec := tinySpec()
	spec.MaxShardRetries = 100 // generous: bounded fault counts guarantee convergence

	c := newCoordinator(t, t.TempDir(), 400*time.Millisecond)
	eng := newEngine(t)
	eng.SetRemote(c)
	sw, err := c.Submit(context.Background(), eng, spec)
	if err != nil {
		t.Fatal(err)
	}

	// A black hole leases two shards and never reports back: only lease
	// expiry and work-stealing can finish the sweep.
	blackholed := leaseN(t, c, "blackhole", 2)
	if len(blackholed) != 2 {
		t.Fatalf("black hole holds %d leases, want 2", len(blackholed))
	}

	srv := serve(t, c)
	in := faults.New(faultSeed(t),
		faults.Rule{Site: faults.SiteClusterLease, Kind: faults.KindError, Prob: 0.3, Times: 10},
		faults.Rule{Site: faults.SiteClusterComplete, Kind: faults.KindError, Prob: 0.3, Times: 10},
		faults.Rule{Site: faults.SiteSweepShard, Kind: faults.KindError, Prob: 0.2, Times: 10},
	)
	wctx, stopWorkers := context.WithCancel(faults.With(context.Background(), in))
	defer stopWorkers()
	for _, id := range []string{"w1", "w2"} {
		w := &Worker{Coordinator: srv.URL, ID: id, MaxShards: 2, Poll: fastPoll}
		go w.Run(wctx)
	}
	// The victim worker dies abruptly mid-run — context death is the
	// in-process stand-in for SIGKILL: no goodbye, leases just rot.
	killCtx, kill := context.WithCancel(faults.With(context.Background(), in))
	defer kill()
	victim := &Worker{Coordinator: srv.URL, ID: "victim", MaxShards: 1, Poll: fastPoll}
	go victim.Run(killCtx)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for sw.Snapshot().Completed == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		kill()
	}()

	snap := waitDone(t, sw, 120*time.Second)
	if snap.State != sweep.Done {
		t.Fatalf("chaos sweep ended %s (%s), want done", snap.State, snap.Error)
	}
	t.Logf("seed %d: %d faults fired, %d shard retries", faultSeed(t), in.Fired(), snap.Retried)
	for _, sh := range snap.Shards {
		if sh.Worker == "" {
			t.Fatalf("shard %d completed without worker attribution", sh.Index)
		}
		if sh.Worker == "blackhole" {
			t.Fatalf("shard %d still attributed to the black hole after completion", sh.Index)
		}
	}
	got, ok := sw.Result()
	if !ok {
		t.Fatal("done sweep has no result")
	}
	if renderAll(t, got) != want {
		t.Fatal("N-worker chaos run is not byte-identical to sweep.RunSerial")
	}
}

// TestCoordinatorRestartReplay is the durability acceptance test: a
// coordinator killed mid-sweep reboots from the shard journal with the
// already-uploaded results intact — zero lost, zero re-evaluated, zero
// duplicated — and the finished merge is byte-identical to the serial
// run. A third boot then proves finished sweeps replay as-finished.
func TestCoordinatorRestartReplay(t *testing.T) {
	serial, err := sweep.RunSerial(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, serial)
	dir := t.TempDir()

	// Boot 1: lease two shards, upload their results, then crash. Close
	// precedes the context cancel the way a real kill severs the journal
	// before in-memory state unwinds — the cancelled terminal state must
	// NOT reach the journal, or replay would skip the sweep.
	co1, err := New(Config{DataDir: dir, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	eng1 := newEngine(t)
	eng1.SetRemote(co1)
	ctx1, crash := context.WithCancel(context.Background())
	sw1, err := co1.Submit(ctx1, eng1, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range leaseN(t, co1, "w0", 2) {
		sr, retries, err := sweep.EvalShard(context.Background(), g.Spec, g.Point)
		if err != nil {
			t.Fatalf("shard %d: %v", g.Index, err)
		}
		if err := co1.Complete("w0", g.LeaseID, sr, "", retries); err != nil {
			t.Fatalf("complete shard %d: %v", g.Index, err)
		}
	}
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}
	crash()
	waitDone(t, sw1, 30*time.Second) // the orphaned sweep unwinds as cancelled in-memory

	// Boot 2: replay resumes the interrupted sweep with both uploaded
	// shards pre-restored, and a real worker finishes the remainder.
	co2, err := New(Config{DataDir: dir, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co2.Close() })
	eng2 := newEngine(t)
	eng2.SetRemote(co2)
	replayed, resumed, err := co2.Replay(context.Background(), eng2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 || len(replayed) != 1 || replayed[0].ID != sw1.ID {
		t.Fatalf("replay restored %d sweeps and resumed %d, want sweep %s resumed", len(replayed), resumed, sw1.ID)
	}
	sw2, ok := eng2.Get(sw1.ID)
	if !ok {
		t.Fatalf("replayed sweep %s missing from the engine", sw1.ID)
	}
	srv := serve(t, co2)
	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	go (&Worker{Coordinator: srv.URL, ID: "w1", MaxShards: 3, Poll: fastPoll}).Run(wctx)

	snap := waitDone(t, sw2, 120*time.Second)
	if snap.State != sweep.Done {
		t.Fatalf("replayed sweep ended %s (%s), want done", snap.State, snap.Error)
	}
	restored := 0
	for _, sh := range snap.Shards {
		if sh.Restored {
			restored++
			if sh.Worker != "w0" {
				t.Errorf("restored shard %d attributed to %q, want the journaled worker w0", sh.Index, sh.Worker)
			}
		}
	}
	if restored != 2 {
		t.Fatalf("%d shards marked restored, want the 2 journaled ones", restored)
	}
	got, ok := sw2.Result()
	if !ok {
		t.Fatal("done sweep has no result")
	}
	if renderAll(t, got) != want {
		t.Fatal("journal-restored sweep is not byte-identical to sweep.RunSerial")
	}

	// Exactly-once in the journal: one sweep intent, each shard index
	// journaled once, one terminal sweep_done (written asynchronously).
	deadline := time.Now().Add(10 * time.Second)
	for co2.journal.Len() < 8 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	var sweeps, dones int
	perIndex := map[int]int{}
	for _, e := range co2.journal.Entries() {
		switch e.Type {
		case EntrySweep:
			sweeps++
		case EntryShard:
			perIndex[e.Index]++
			if e.Worker == "" {
				t.Errorf("shard %d journaled without worker attribution", e.Index)
			}
		case EntrySweepDone:
			dones++
			if e.State != string(sweep.Done) {
				t.Errorf("terminal state journaled as %q, want done", e.State)
			}
		}
	}
	if sweeps != 1 || dones != 1 || len(perIndex) != 6 {
		t.Fatalf("journal shape: %d sweep, %d done, %d distinct shards; want 1/1/6", sweeps, dones, len(perIndex))
	}
	for idx, n := range perIndex {
		if n != 1 {
			t.Fatalf("shard %d journaled %d times, want exactly once", idx, n)
		}
	}
	if err := co2.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot 3: a finished sweep replays as-finished — same id, same
	// bytes, nothing re-queued, and it does not count as resumed.
	co3, err := New(Config{DataDir: dir, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co3.Close() })
	eng3 := newEngine(t)
	eng3.SetRemote(co3)
	restored3, resumed3, err := co3.Replay(context.Background(), eng3)
	if err != nil {
		t.Fatal(err)
	}
	if resumed3 != 0 || len(restored3) != 1 {
		t.Fatalf("finished sweep counted as resumed (%d) or not restored (%d)", resumed3, len(restored3))
	}
	sw3, ok := eng3.Get(sw1.ID)
	if !ok {
		t.Fatal("finished sweep missing after third boot")
	}
	snap3 := waitDone(t, sw3, 30*time.Second)
	if snap3.State != sweep.Done || snap3.Completed != 6 {
		t.Fatalf("third-boot sweep: state=%s completed=%d, want done/6", snap3.State, snap3.Completed)
	}
	if st := co3.Status(); st.Queued != 0 || st.Leased != 0 {
		t.Fatalf("third boot re-queued work: %+v", st)
	}
	got3, _ := sw3.Result()
	if renderAll(t, got3) != want {
		t.Fatal("third-boot restored result is not byte-identical")
	}
}

// TestReplaySkipsRetiredKernel: a journal written before a kernel was
// retired still boots. Replay skips the finished sweep of the retired
// p99chipclock_is kernel, which can neither resume nor render, and
// resumes the live sweep journaled after it.
func TestReplaySkipsRetiredKernel(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	// The retired sweep's spec as the coordinator journaled it:
	// normalized, with the kernel's default proposal filled in.
	retired := sweep.Spec{
		Metric: "p99chipclock_is", Nodes: []string{"22nm PTM HP"},
		Vdd: &sweep.VddAxis{From: 0.50, To: 0.50, Step: 0.05}, Samples: []int{10000}, Seed: 777,
		Sampler: "is", ISShift: 2.3263478740408408, ISMix: 0.25,
	}
	live, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Entry{
		{Type: EntrySweep, SweepID: "retired", Spec: &retired},
		{Type: EntryShard, SweepID: "retired", Worker: "w0",
			Result: &sweep.ShardResult{Kernel: "p99chipclock_is", Value: 79.1}},
		{Type: EntrySweepDone, SweepID: "retired", State: string(sweep.Done)},
		{Type: EntrySweep, SweepID: "live", Spec: &live},
	} {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	co := newCoordinator(t, dir, time.Hour)
	eng := newEngine(t)
	eng.SetRemote(co)
	restored, resumed, err := co.Replay(context.Background(), eng)
	if err != nil {
		t.Fatalf("replay refused a journal holding a retired kernel's sweep: %v", err)
	}
	if resumed != 1 || len(restored) != 1 || restored[0].ID != "live" {
		t.Fatalf("replay restored %d sweeps and resumed %d, want only the live sweep, resumed", len(restored), resumed)
	}
	if _, ok := eng.Get("retired"); ok {
		t.Error("the retired kernel's sweep was restored")
	}
	if snap := restored[0].Snapshot(); snap.Total != 6 || snap.State.Terminal() {
		t.Errorf("live sweep replayed %s with %d shards, want running with 6", snap.State, snap.Total)
	}
	// End the resumed sweep so its watcher journals the terminal state
	// and exits before the coordinator closes.
	restored[0].Cancel()
	waitDone(t, restored[0], 30*time.Second)
}

// TestWorkerRidesOutCoordinatorAbsence: a worker pointed at a dead
// address keeps polling with backoff instead of crashing, and exits
// cleanly when told to.
func TestWorkerRidesOutCoordinatorAbsence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{Coordinator: "http://127.0.0.1:1", ID: "orphan", Poll: fastPoll}
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx) }()
	time.Sleep(50 * time.Millisecond) // several failed polls
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("worker exited %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after cancel")
	}
}
