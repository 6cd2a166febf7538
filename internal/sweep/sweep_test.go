package sweep

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/jobs"
	"github.com/ntvsim/ntvsim/internal/resultcache"
)

// tinySpec is a 2 nodes × 3 voltages × 1 samples = 6-shard metric sweep
// small enough for fast tests.
func tinySpec() Spec {
	return Spec{
		Metric:  "chain3sigma",
		Nodes:   []string{"90nm GP", "22nm PTM HP"},
		Vdd:     &VddAxis{From: 0.50, To: 0.60, Step: 0.05},
		Samples: []int{200},
		Seed:    4242,
	}
}

func newTestEngine(t *testing.T, workers, queue int) *Engine {
	t.Helper()
	m := jobs.NewManager(workers, queue)
	t.Cleanup(m.Close)
	return NewEngine(m, resultcache.New[experiments.Result](64), nil)
}

func waitDone(t *testing.T, sw *Sweep, timeout time.Duration) Snapshot {
	t.Helper()
	select {
	case <-sw.Done():
	case <-time.After(timeout):
		t.Fatalf("sweep %s not terminal after %v: %+v", sw.ID, timeout, sw.Snapshot())
	}
	return sw.Snapshot()
}

func TestNormalizedDefaults(t *testing.T) {
	ns, err := Spec{Metric: "chain3sigma"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(ns.Nodes) != 4 || ns.Vdd == nil || len(ns.Samples) != 1 {
		t.Fatalf("defaults not filled: %+v", ns)
	}
	if ns.Samples[0] != 1000 || ns.Seed != experiments.Default().Seed {
		t.Errorf("wrong defaults: samples %v seed %d", ns.Samples, ns.Seed)
	}
	if got := len(ns.Grid()); got != 4*3*1 {
		t.Errorf("default grid has %d points, want 12", got)
	}

	// Short node aliases canonicalize.
	ns, err = Spec{Metric: "gate3sigma", Nodes: []string{"22nm"}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Nodes[0] != "22nm PTM HP" {
		t.Errorf("node not canonicalized: %q", ns.Nodes[0])
	}

	// Canonicalization writes a copy, never the caller's slice (which
	// concurrent evaluations of one spec share).
	nodes := []string{"22nm"}
	if _, err := (Spec{Metric: "gate3sigma", Nodes: nodes}).Normalized(); err != nil {
		t.Fatal(err)
	}
	if nodes[0] != "22nm" {
		t.Errorf("Normalized rewrote the caller's Nodes to %q", nodes[0])
	}
}

func TestNormalizedRejects(t *testing.T) {
	cases := []Spec{
		{}, // neither metric nor experiment
		{Metric: "chain3sigma", Experiment: "fig2"}, // both
		{Metric: "nope"},      // unknown metric
		{Experiment: "fig99"}, // unknown experiment
		{Metric: "chain3sigma", Nodes: []string{"7nm"}},                                                  // unknown node
		{Metric: "chain3sigma", Samples: []int{-1}},                                                      // negative samples
		{Metric: "chain3sigma", Vdd: &VddAxis{From: 0.6, To: 0.5, Step: 0.05}},                           // descending
		{Metric: "chain3sigma", Vdd: &VddAxis{From: 0.5, To: 0.6, Step: 0}},                              // zero step
		{Metric: "chain3sigma", Vdd: &VddAxis{From: 0.5, To: 10, Step: 0.0001}, Samples: []int{1, 2, 3}}, // too many shards
		{Experiment: "fig2", Nodes: []string{"90nm GP"}},                                                 // experiment sweeps take no node axis
	}
	for i, spec := range cases {
		if _, err := spec.Normalized(); err == nil {
			t.Errorf("case %d (%+v): no error", i, spec)
		}
	}
}

// TestGridDeterministic pins the row-major expansion order and the
// (sweep seed, grid index) seed derivation.
func TestGridDeterministic(t *testing.T) {
	ns, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := ns.Grid(), ns.Grid()
	if len(g1) != 6 {
		t.Fatalf("grid has %d points, want 6", len(g1))
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("grid expansion not deterministic at %d: %+v vs %+v", i, g1[i], g2[i])
		}
		if g1[i].Index != i {
			t.Errorf("point %d has index %d", i, g1[i].Index)
		}
		if g1[i].Seed == 0 {
			t.Errorf("point %d has zero derived seed", i)
		}
	}
	// Row-major: first three points share the first node, ascending Vdd.
	if g1[0].Node != "90nm GP" || g1[3].Node != "22nm PTM HP" {
		t.Errorf("node order wrong: %q, %q", g1[0].Node, g1[3].Node)
	}
	if !(g1[0].Vdd < g1[1].Vdd && g1[1].Vdd < g1[2].Vdd) {
		t.Errorf("vdd not ascending: %v %v %v", g1[0].Vdd, g1[1].Vdd, g1[2].Vdd)
	}
	// Seeds differ across indices (decorrelated sub-streams).
	if g1[0].Seed == g1[1].Seed {
		t.Errorf("adjacent shards share seed %d", g1[0].Seed)
	}
}

// TestShardedMatchesSerial is the core determinism contract: a sweep
// executed across a multi-worker pool merges to a byte-identical result
// to the single-goroutine serial run, regardless of shard completion
// order.
func TestShardedMatchesSerial(t *testing.T) {
	serial, err := RunSerial(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Points) != 6 {
		t.Fatalf("serial run has %d points, want 6", len(serial.Points))
	}

	eng := newTestEngine(t, 4, 16)
	sw, err := eng.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, sw, time.Minute)
	if snap.State != Done {
		t.Fatalf("sweep finished %s: %+v", snap.State, snap.Shards)
	}
	merged, ok := sw.Result()
	if !ok {
		t.Fatal("done sweep has no result")
	}

	if got, want := merged.Render(), serial.Render(); got != want {
		t.Errorf("sharded render differs from serial:\n--- sharded ---\n%s\n--- serial ---\n%s", got, want)
	}
	if got, want := merged.CSV(), serial.CSV(); len(got) != len(want) {
		t.Errorf("CSV row count %d vs %d", len(got), len(want))
	} else {
		for i := range got {
			if strings.Join(got[i], ",") != strings.Join(want[i], ",") {
				t.Errorf("CSV row %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
	for _, p := range merged.Points {
		if p.Value <= 0 {
			t.Errorf("point %d has implausible 3sigma/mu %v", p.Index, p.Value)
		}
	}
}

// TestResubmitServedFromCache runs the same sweep twice on one engine
// and requires every shard of the second run to be a cache hit, visible
// both in the snapshot and in the sweep_shards_cached counter.
func TestResubmitServedFromCache(t *testing.T) {
	eng := newTestEngine(t, 2, 16)
	first, err := eng.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	fs := waitDone(t, first, time.Minute)
	if fs.State != Done || fs.Cached != 0 {
		t.Fatalf("first run: state %s, %d cached", fs.State, fs.Cached)
	}

	cachedBefore := mShardsCached.Value()
	second, err := eng.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ss := waitDone(t, second, time.Minute)
	if ss.State != Done {
		t.Fatalf("second run finished %s", ss.State)
	}
	if ss.Cached != ss.Total || ss.Completed != ss.Total {
		t.Errorf("second run: %d/%d cached, %d completed", ss.Cached, ss.Total, ss.Completed)
	}
	if got := mShardsCached.Value() - cachedBefore; got != float64(ss.Total) {
		t.Errorf("sweep_shards_cached moved by %v, want %v", got, ss.Total)
	}

	r1, _ := first.Result()
	r2, _ := second.Result()
	if r1.Render() != r2.Render() {
		t.Error("cached rerun renders differently")
	}
}

// TestPartialResultsAndCancel submits a sweep whose second shard is
// enormous, waits for the small shard's partial result to appear
// mid-run, then cancels and requires prompt termination.
func TestPartialResultsAndCancel(t *testing.T) {
	eng := newTestEngine(t, 2, 16)
	sw, err := eng.Submit(Spec{
		Metric:  "chain3sigma",
		Nodes:   []string{"90nm GP"},
		Vdd:     &VddAxis{From: 0.55, To: 0.55, Step: 0.01},
		Samples: []int{100, 80_000_000}, // shard 0 instant, shard 1 minutes
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Partial results become visible while the big shard still runs.
	deadline := time.Now().Add(30 * time.Second)
	var snap Snapshot
	for {
		snap = sw.Snapshot()
		if snap.Completed >= 1 || snap.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no partial results after 30s: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snap.State.Terminal() {
		t.Fatalf("sweep already terminal (%s); big shard finished too fast to observe partials", snap.State)
	}
	if len(snap.Results) == 0 || snap.Results[0].Index != 0 {
		t.Fatalf("partial results missing: %+v", snap.Results)
	}

	start := time.Now()
	if !sw.Cancel() {
		t.Fatal("Cancel reported not cancellable")
	}
	final := waitDone(t, sw, 30*time.Second)
	if final.State != Cancelled {
		t.Fatalf("state %s after cancel", final.State)
	}
	if waited := time.Since(start); waited > 15*time.Second {
		t.Errorf("cancellation took %v; Monte-Carlo work did not stop", waited)
	}
	if final.Cancelled == 0 {
		t.Error("no shard recorded as cancelled")
	}
	if _, ok := sw.Result(); ok {
		t.Error("cancelled sweep returned a merged result")
	}
	// Cancelling again is a no-op.
	if sw.Cancel() {
		t.Error("second Cancel reported cancellable")
	}
}

// TestExperimentSweep grids a registered experiment over its samples
// axis and expects one rendered artifact per point.
func TestExperimentSweep(t *testing.T) {
	eng := newTestEngine(t, 2, 8)
	sw, err := eng.Submit(Spec{Experiment: "fig1", Samples: []int{40, 60}, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, sw, time.Minute)
	if snap.State != Done {
		t.Fatalf("state %s: %+v", snap.State, snap.Shards)
	}
	res, _ := sw.Result()
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if !strings.Contains(p.Render, "Figure 1") {
			t.Errorf("point %d render does not look like fig1: %q", p.Index, p.Render[:min(80, len(p.Render))])
		}
	}
	if !strings.Contains(res.Render(), "point 1") {
		t.Error("merged render missing per-point sections")
	}

	serial, err := RunSerial(context.Background(), Spec{Experiment: "fig1", Samples: []int{40, 60}, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() != res.Render() {
		t.Error("experiment sweep: sharded render differs from serial")
	}
}

func TestEngineListNewestFirst(t *testing.T) {
	eng := newTestEngine(t, 2, 8)
	a, err := eng.Submit(Spec{Metric: "gate3sigma", Nodes: []string{"90nm GP"}, Vdd: &VddAxis{From: 0.5, To: 0.5, Step: 0.1}, Samples: []int{50}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Submit(Spec{Metric: "gate3sigma", Nodes: []string{"22nm"}, Vdd: &VddAxis{From: 0.5, To: 0.5, Step: 0.1}, Samples: []int{50}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a, time.Minute)
	waitDone(t, b, time.Minute)
	list := eng.List()
	if len(list) != 2 || list[0].ID != b.ID || list[1].ID != a.ID {
		t.Fatalf("listing not newest-first: %d entries", len(list))
	}
	if list[0].Completed != 1 || list[0].Shards != nil || list[0].Results != nil {
		t.Errorf("listing entry = %+v, want counts without shard or result detail", list[0])
	}
}
