package cluster

import (
	"testing"

	"github.com/ntvsim/ntvsim/internal/sweep"
)

func openJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// TestJournalRoundTrip pins the WAL property: entries appended (and
// acknowledged) before a close are all present, in order, after a
// reopen.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	spec := sweep.Spec{Metric: "chain3sigma"}
	entries := []Entry{
		{Type: EntrySweep, SweepID: "sw1", Spec: &spec},
		{Type: EntryShard, SweepID: "sw1", Index: 3, Worker: "w1",
			Result: &sweep.ShardResult{Kernel: "chain3sigma", Value: 1.25}},
		{Type: EntrySweepDone, SweepID: "sw1", State: "done"},
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, dir)
	got := j2.Entries()
	if len(got) != len(entries) {
		t.Fatalf("reopened journal has %d entries, want %d", len(got), len(entries))
	}
	for i, e := range got {
		if e.Schema != Schema {
			t.Errorf("entry %d schema %q, want %q", i, e.Schema, Schema)
		}
		if e.Type != entries[i].Type || e.SweepID != entries[i].SweepID {
			t.Errorf("entry %d is %s/%s, want %s/%s", i, e.Type, e.SweepID, entries[i].Type, entries[i].SweepID)
		}
		if e.At.IsZero() {
			t.Errorf("entry %d has no timestamp", i)
		}
	}
	if got[1].Result == nil || got[1].Result.Value != 1.25 || got[1].Worker != "w1" {
		t.Fatalf("shard entry did not round-trip: %+v", got[1])
	}
}
