package ledger

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/buildinfo"
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
	got, ok := l.Get("job-0001")
	if !ok {
		t.Fatal("Get: record missing after Append")
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
		got, _ := l.Get(rec.RunID)
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
		got, ok := re.Get(fmt.Sprintf("job-%04d", i))
		if !ok {
			t.Fatalf("record %d lost across restart", i)
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
			if _, ok := re.Get(fmt.Sprintf("job-%04d", n-1)); ok {
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
			if _, ok := re2.Get("job-0099"); !ok {
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
	if got, _ := l.Get(rec.RunID); got.State != "done" {
		t.Errorf("latest record should win: got state %q", got.State)
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1 (same run id)", l.Len())
	}
	l.Close()
	re := openT(t, dir)
	if got, _ := re.Get(rec.RunID); got.State != "done" {
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

	all, total := l.List(Query{}, -1, 0)
	if total != 10 || len(all) != 10 {
		t.Fatalf("List all: got %d/%d, want 10/10", len(all), total)
	}
	if all[0].RunID != "job-0009" || all[9].RunID != "job-0000" {
		t.Errorf("not newest-first: first %s last %s", all[0].RunID, all[9].RunID)
	}

	sweeps, total := l.List(Query{Kind: "sweep"}, -1, 0)
	if total != 5 {
		t.Errorf("kind filter: total %d, want 5", total)
	}
	for _, r := range sweeps {
		if r.Kind != "sweep" {
			t.Errorf("kind filter leaked %q", r.Kind)
		}
	}

	failed, total := l.List(Query{State: "failed"}, -1, 0)
	if total != 1 || failed[0].RunID != "job-0003" {
		t.Errorf("state filter: got %v total %d", failed, total)
	}

	named, _ := l.List(Query{Name: "yield_vs_vdd", Kind: "sweep"}, -1, 0)
	if len(named) != 5 {
		t.Errorf("name filter: got %d, want 5", len(named))
	}

	page, total := l.List(Query{}, 3, 4)
	if total != 10 || len(page) != 3 || page[0].RunID != "job-0005" {
		t.Errorf("pagination: len %d total %d first %s", len(page), total, page[0].RunID)
	}
	empty, total := l.List(Query{}, 5, 50)
	if total != 10 || len(empty) != 0 {
		t.Errorf("offset past end: len %d total %d", len(empty), total)
	}
}

func TestNilLedgerNoOps(t *testing.T) {
	var l *Ledger
	if err := l.Append(testRecord(0)); err != nil {
		t.Errorf("nil Append: %v", err)
	}
	if _, ok := l.Get("x"); ok {
		t.Error("nil Get returned a record")
	}
	if recs, total := l.List(Query{}, -1, 0); recs != nil || total != 0 {
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
