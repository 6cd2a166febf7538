package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/buildinfo"
	"github.com/ntvsim/ntvsim/internal/jsonlog"
)

func testRecord(i int) Record {
	return Record{
		RunID:      fmt.Sprintf("job-%04d", i),
		Kind:       "job",
		Name:       "near_threshold_simd",
		SpecHash:   fmt.Sprintf("%064d", i),
		Spec:       json.RawMessage(`{"seed":20120603}`),
		Seed:       20120603 + uint64(i),
		State:      "done",
		Created:    time.Unix(1700000000+int64(i), 0).UTC(),
		Finished:   time.Unix(1700000001+int64(i), 0).UTC(),
		DurationMS: float64(i) * 1.5,
		Samples:    int64(i) * 1000,
		Attempts:   1,
	}
}

func openT(t *testing.T, dir string) *Ledger {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendGetRoundTrip(t *testing.T) {
	l := openT(t, t.TempDir())
	rec := testRecord(1)
	if err := l.Append(rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
	got, ok, err := l.Get("job-0001")
	if err != nil || !ok {
		t.Fatalf("Get: record missing after Append (%v)", err)
	}
	if got.Schema != Schema {
		t.Errorf("schema not stamped: %q", got.Schema)
	}
	if got.Build != buildinfo.Read() {
		t.Errorf("build info not stamped: %+v", got.Build)
	}
	if got.SpecHash != rec.SpecHash || got.Seed != rec.Seed || got.Samples != rec.Samples {
		t.Errorf("round-trip mismatch: got %+v", got)
	}
}

// TestReplayByteIdentical is the core durability property: after a
// restart, the replayed index serves records byte-identical to what the
// pre-restart ledger served.
func TestReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	const n = 25
	before := make([][]byte, n)
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		if i%5 == 0 {
			rec.Kind = "sweep"
			rec.Shards = []ShardRecord{{Index: 0, Seed: 7, State: "done", JobID: "sweep:x#0"}}
		}
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		got, _, err := l.Get(rec.RunID)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = b
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := openT(t, dir)
	if re.Len() != n {
		t.Fatalf("replayed %d records, want %d", re.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok, err := re.Get(fmt.Sprintf("job-%04d", i))
		if err != nil || !ok {
			t.Fatalf("record %d lost across restart (%v)", i, err)
		}
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(before[i]) {
			t.Errorf("record %d changed across restart:\n pre  %s\n post %s", i, before[i], b)
		}
	}
}

// TestReplayTruncatedTail simulates a crash mid-append: for every
// possible truncation point inside the final record, replay must keep
// all complete records, drop the torn tail, and leave the file ready
// for clean appends.
func TestReplayTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	const n = 5
	for i := 0; i < n; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of the final line.
	lastStart := 0
	for i := 0; i < len(full)-1; i++ {
		if full[i] == '\n' {
			lastStart = i + 1
		}
	}

	rng := rand.New(rand.NewSource(1))
	cuts := []int{lastStart, lastStart + 1, len(full) - 1}
	for i := 0; i < 8; i++ {
		cuts = append(cuts, lastStart+1+rng.Intn(len(full)-lastStart-1))
	}
	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			sub := t.TempDir()
			if err := os.WriteFile(filepath.Join(sub, FileName), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			re := openT(t, sub)
			if re.Len() != n-1 {
				t.Fatalf("after cut at %d: replayed %d records, want %d", cut, re.Len(), n-1)
			}
			if re.Has(fmt.Sprintf("job-%04d", n-1)) {
				t.Error("torn final record should not be indexed")
			}
			// The torn bytes must be gone so new appends land cleanly.
			if err := re.Append(testRecord(99)); err != nil {
				t.Fatalf("append after truncation: %v", err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2 := openT(t, sub)
			if re2.Len() != n {
				t.Fatalf("post-repair replay: %d records, want %d", re2.Len(), n)
			}
			if _, ok, err := re2.Get("job-0099"); err != nil || !ok {
				t.Error("record appended after repair lost on second replay")
			}
		})
	}
}

func TestLatestRecordWinsPerRunID(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	rec := testRecord(1)
	rec.State = "failed"
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	rec.State = "done"
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := l.Get(rec.RunID); got.State != "done" {
		t.Errorf("latest record should win: got state %q", got.State)
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1 (same run id)", l.Len())
	}
	l.Close()
	re := openT(t, dir)
	if got, _, _ := re.Get(rec.RunID); got.State != "done" {
		t.Errorf("latest record should win after replay: got state %q", got.State)
	}
}

func TestListNewestFirstAndFilters(t *testing.T) {
	l := openT(t, t.TempDir())
	for i := 0; i < 10; i++ {
		rec := testRecord(i)
		if i%2 == 0 {
			rec.Kind = "sweep"
			rec.Name = "yield_vs_vdd"
		}
		if i == 3 {
			rec.State = "failed"
		}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	list := func(q Query, limit, offset int) ([]Record, int) {
		t.Helper()
		recs, total, err := l.List(q, limit, offset)
		if err != nil {
			t.Fatal(err)
		}
		return recs, total
	}
	all, total := list(Query{}, -1, 0)
	if total != 10 || len(all) != 10 {
		t.Fatalf("List all: got %d/%d, want 10/10", len(all), total)
	}
	if all[0].RunID != "job-0009" || all[9].RunID != "job-0000" {
		t.Errorf("not newest-first: first %s last %s", all[0].RunID, all[9].RunID)
	}

	sweeps, total := list(Query{Kind: "sweep"}, -1, 0)
	if total != 5 {
		t.Errorf("kind filter: total %d, want 5", total)
	}
	for _, r := range sweeps {
		if r.Kind != "sweep" {
			t.Errorf("kind filter leaked %q", r.Kind)
		}
	}

	failed, total := list(Query{State: "failed"}, -1, 0)
	if total != 1 || failed[0].RunID != "job-0003" {
		t.Errorf("state filter: got %v total %d", failed, total)
	}

	named, _ := list(Query{Name: "yield_vs_vdd", Kind: "sweep"}, -1, 0)
	if len(named) != 5 {
		t.Errorf("name filter: got %d, want 5", len(named))
	}

	page, total := list(Query{}, 3, 4)
	if total != 10 || len(page) != 3 || page[0].RunID != "job-0005" {
		t.Errorf("pagination: len %d total %d first %s", len(page), total, page[0].RunID)
	}
	empty, total := list(Query{}, 5, 50)
	if total != 10 || len(empty) != 0 {
		t.Errorf("offset past end: len %d total %d", len(empty), total)
	}
}

// heavyRecord is a sweep-sized record: a resolved spec, per-shard
// provenance and a span tree, several KB of JSON.
func heavyRecord(i int) Record {
	rec := testRecord(i)
	rec.Kind = "sweep"
	rec.Spec = json.RawMessage(`{"metric":"p99chipclock","pad":"` + strings.Repeat("s", 512) + `"}`)
	for k := 0; k < 64; k++ {
		rec.Shards = append(rec.Shards, ShardRecord{Index: k, Seed: uint64(k), State: "done", Cached: true})
	}
	return rec
}

// liveHeap is the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIndexHoldsNoRecords: the in-memory index costs about a hundred
// bytes a run however large the records are — after appends and after
// a replay — because it keeps offsets, never the records, their specs
// or their shards. Every record still reads back whole.
func TestIndexHoldsNoRecords(t *testing.T) {
	const n, perRun = 1000, 256
	dir := t.TempDir()
	before := liveHeap()
	l := openT(t, dir)
	for i := 0; i < n; i++ {
		if err := l.Append(heavyRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(liveHeap()) - int64(before)
	t.Logf("index after %d appends: %d B/run", n, grown/n)
	if b, _ := json.Marshal(heavyRecord(0)); len(b) < 10*perRun {
		t.Fatalf("test record is only %d bytes; it would not show a retained record", len(b))
	}
	if grown > n*perRun {
		t.Errorf("index grew the heap by %d B for %d runs (%d B/run), want ≤ %d B/run", grown, n, grown/n, perRun)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	before = liveHeap()
	re := openT(t, dir)
	grown = int64(liveHeap()) - int64(before)
	t.Logf("index after replaying %d runs: %d B/run", n, grown/n)
	if grown > n*perRun {
		t.Errorf("replayed index holds %d B for %d runs (%d B/run), want ≤ %d B/run", grown, n, grown/n, perRun)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		got, ok, err := re.Get(fmt.Sprintf("job-%04d", i))
		if err != nil || !ok || len(got.Shards) != 64 || string(got.Spec) != string(heavyRecord(i).Spec) {
			t.Fatalf("record %d did not read back whole: ok=%v err=%v shards=%d", i, ok, err, len(got.Shards))
		}
	}
	runtime.KeepAlive(re)
}

// TestReadAfterClose: a closed ledger still knows which runs it
// recorded, but reading one back reports the closed journal instead of
// pretending the run is unknown.
func TestReadAfterClose(t *testing.T) {
	l := openT(t, t.TempDir())
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !l.Has("job-0001") {
		t.Error("Has forgot a recorded run after Close")
	}
	if _, ok, err := l.Get("job-0001"); ok || !errors.Is(err, jsonlog.ErrClosed) {
		t.Errorf("Get after Close: ok=%v err=%v, want jsonlog.ErrClosed", ok, err)
	}
	if _, total, err := l.List(Query{}, 10, 0); total != 1 || !errors.Is(err, jsonlog.ErrClosed) {
		t.Errorf("List after Close: total=%d err=%v, want 1 and jsonlog.ErrClosed", total, err)
	}
	if _, ok, err := l.Get("job-0002"); ok || err != nil {
		t.Errorf("Get of an unknown run after Close: ok=%v err=%v, want neither", ok, err)
	}
}

func TestNilLedgerNoOps(t *testing.T) {
	var l *Ledger
	if err := l.Append(testRecord(0)); err != nil {
		t.Errorf("nil Append: %v", err)
	}
	if _, ok, err := l.Get("x"); ok || err != nil {
		t.Error("nil Get returned a record")
	}
	if l.Has("x") {
		t.Error("nil Has found a record")
	}
	if recs, total, err := l.List(Query{}, -1, 0); recs != nil || total != 0 || err != nil {
		t.Error("nil List returned data")
	}
	if l.Len() != 0 {
		t.Error("nil Len != 0")
	}
	if l.Dir() != "" {
		t.Error("nil Dir")
	}
	if err := l.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	const writers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(testRecord(w*per + i)); err != nil {
					t.Errorf("Append: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != writers*per {
		t.Fatalf("Len = %d, want %d", l.Len(), writers*per)
	}
	l.Close()
	re := openT(t, dir)
	if re.Len() != writers*per {
		t.Fatalf("replay after concurrent appends: %d, want %d", re.Len(), writers*per)
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with missing dir: %v", err)
	}
	defer l.Close()
	if _, err := os.Stat(filepath.Join(dir, FileName)); err != nil {
		t.Errorf("journal not created: %v", err)
	}
}
