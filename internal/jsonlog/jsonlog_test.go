package jsonlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

const name = "test.jsonl"

// collect is the suite's replay callback: like the ledger and the shard
// journal, it rejects a line that is not valid JSON and keeps the rest.
func collect(lines *[]string) func(int64, []byte) error {
	return func(_ int64, line []byte) error {
		if !json.Valid(line) {
			return errors.New("invalid JSON")
		}
		*lines = append(*lines, string(line))
		return nil
	}
}

// openT opens dir's log, returning it with the lines replay delivered.
func openT(t *testing.T, dir string) (*Log, []string) {
	t.Helper()
	var lines []string
	l, err := Open(dir, name, collect(&lines))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, lines
}

func writeFile(t *testing.T, dir, data string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, dir string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReplay is the crash-replay table: for each file a crash (or a
// disk fault) can leave behind, Open either keeps exactly the lines
// before a torn tail or refuses with ErrCorrupt and the offset of the
// bad line, leaving the file untouched. After a successful Open, one
// Append lands on a clean line boundary and survives a reopen.
func TestReplay(t *testing.T) {
	const a, b = `{"n":1}`, `{"n":2,"s":"x y"}`
	type replayCase struct {
		name    string
		file    string
		corrupt bool     // Open must refuse
		keep    int      // bytes Open keeps, or the corrupt line's offset
		replay  []string // lines delivered to the callback
	}
	cases := []replayCase{
		{name: "empty", file: "", keep: 0},
		{name: "clean", file: a + "\n" + b + "\n", keep: len(a+b) + 2, replay: []string{a, b}},
		{name: "blank and padded lines", file: "\n  " + a + " \r\n\n", keep: len(a) + 7, replay: []string{a}},
		{name: "torn tail", file: a + "\n" + b[:5], keep: len(a) + 1, replay: []string{a}},
		{name: "torn tail of only line", file: a[:3], keep: 0},
		{name: "garbage tail", file: a + "\n\x00\x01garbage\n", keep: len(a) + 1, replay: []string{a}},
		{name: "garbage then torn tail", file: a + "\n%%%\n" + b[:4], keep: len(a) + 1, replay: []string{a}},
		{name: "interior corruption", file: a + "\n%%%\n" + b + "\n", corrupt: true, keep: len(a) + 1},
		{name: "corrupt first line", file: "%%%\n" + a + "\n", corrupt: true, keep: 0},
		{name: "corrupt line before blank", file: a + "\n{\n\n", corrupt: true, keep: len(a) + 1},
	}
	// A crash can cut the final line at any byte.
	for cut := 0; cut < len(b); cut++ {
		cases = append(cases, replayCase{
			name:   fmt.Sprintf("torn tail cut=%d", cut),
			file:   a + "\n" + b[:cut],
			keep:   len(a) + 1,
			replay: []string{a},
		})
	}
	const appended = `{"appended":true}`
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFile(t, dir, tc.file)
			var got []string
			l, err := Open(dir, name, collect(&got))
			if tc.corrupt {
				if err == nil {
					l.Close()
					t.Fatal("Open accepted interior corruption")
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("error %v does not wrap ErrCorrupt", err)
				}
				if want := fmt.Sprintf("offset %d:", tc.keep); !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
				if after := readFile(t, dir); after != tc.file {
					t.Errorf("refused Open changed the file to %q", after)
				}
				return
			}
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !slices.Equal(got, tc.replay) {
				t.Errorf("replayed %q, want %q", got, tc.replay)
			}
			if after := readFile(t, dir); after != tc.file[:tc.keep] {
				t.Errorf("file after Open = %q, want %q", after, tc.file[:tc.keep])
			}
			if _, err := l.Append([]byte(appended)); err != nil {
				t.Fatalf("append after truncation: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, again := openT(t, dir)
			if want := append(tc.replay, appended); !slices.Equal(again, want) {
				t.Errorf("reopen replayed %q, want %q", again, want)
			}
		})
	}
}

// TestReplayByteIdentical pins that every appended line comes back
// byte for byte, including one longer than the replay read buffer.
func TestReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	lines := []string{
		`{"schema":"ntvsim.run/v1","run_id":"job-0001","spec":{"seed":20120603}}`,
		`{"s":"tab\t quote\" backslash\\ unicode é ✓"}`,
		`[1,2.5e-300,null,true]`,
		`"` + strings.Repeat("x", 3<<19) + `"`,
	}
	for _, line := range lines {
		if _, err := l.Append([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, got := openT(t, dir); !slices.Equal(got, lines) {
		t.Errorf("replay is not byte-identical: %d lines back, want %d", len(got), len(lines))
	}
}

// TestOffsets: replay reports each kept line's starting offset, across
// padding, blank lines and a torn tail that Open truncates; Append
// reports where its line starts; ReadLine returns exactly the replayed
// or appended bytes at each offset, before and after a reopen.
func TestOffsets(t *testing.T) {
	const a, b, c = `{"n":1}`, `{"n":2,"s":"x y"}`, `{"n":3}`
	file := a + "\n\n  " + b + " \r\n" + c + "\n" + `{"torn":`
	dir := t.TempDir()
	writeFile(t, dir, file)
	type line struct {
		off  int64
		text string
	}
	var got []line
	l, err := Open(dir, name, func(off int64, text []byte) error {
		if !json.Valid(text) {
			return errors.New("invalid JSON")
		}
		got = append(got, line{off, string(text)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	want := []line{{0, a}, {int64(len(a) + 2), b}, {int64(len(a) + len(b) + 7), c}}
	if !slices.Equal(got, want) {
		t.Fatalf("replay offsets %v, want %v", got, want)
	}
	const appended = `{"appended":"after the torn tail"}`
	off, err := l.Append([]byte(appended))
	if err != nil {
		t.Fatal(err)
	}
	if kept := int64(len(file) - len(`{"torn":`)); off != kept {
		t.Errorf("Append at offset %d, want %d (the truncated size)", off, kept)
	}
	want = append(want, line{off, appended})
	check := func(l *Log, when string) {
		t.Helper()
		for _, w := range want {
			back, err := l.ReadLine(w.off)
			if err != nil || string(back) != w.text {
				t.Errorf("%s: ReadLine(%d) = %q, %v; want %q", when, w.off, back, err, w.text)
			}
		}
	}
	check(l, "before reopen")
	for _, bad := range []int64{-1, off + int64(len(appended)) + 1} {
		if _, err := l.ReadLine(bad); err == nil {
			t.Errorf("ReadLine(%d) outside the log succeeded", bad)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	l2, err := Open(dir, name, func(off int64, text []byte) error {
		got = append(got, line{off, string(text)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !slices.Equal(got, want) {
		t.Fatalf("reopen offsets %v, want %v", got, want)
	}
	check(l2, "after reopen")
}

// TestConcurrentAppend: appends from many goroutines never interleave
// within a line, every acknowledged line reads back at its offset while
// the others append, and every acknowledged line replays.
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	const writers, per = 8, 25
	var want []string
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			want = append(want, fmt.Sprintf(`{"w":%d,"i":%d,"pad":%q}`, w, i, strings.Repeat("p", 64*i)))
		}
		wg.Add(1)
		go func(mine []string) {
			defer wg.Done()
			for _, line := range mine {
				off, err := l.Append([]byte(line))
				if err != nil {
					t.Errorf("Append: %v", err)
					continue
				}
				if back, err := l.ReadLine(off); err != nil || string(back) != line {
					t.Errorf("ReadLine(%d) = %.40q, %v; want %.40q", off, back, err, line)
				}
			}
		}(want[w*per:])
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := openT(t, dir)
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("replayed %d lines after concurrent appends, want %d intact", len(got), len(want))
	}
}

// TestAppendAfterClose pins the closed-log contract: Append fails with
// ErrClosed and a second Close is a no-op.
func TestAppendAfterClose(t *testing.T) {
	l, _ := openT(t, t.TempDir())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte(`{}`)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v, want ErrClosed", err)
	}
	if _, err := l.ReadLine(0); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	openT(t, dir)
	if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
		t.Errorf("log file not created: %v", err)
	}
}

func TestOpenUnusableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub"), name, collect(new([]string))); err == nil {
		t.Error("Open under a regular file succeeded")
	}
	dir := filepath.Dir(file)
	if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, name, collect(new([]string))); err == nil {
		t.Error("Open of a directory succeeded")
	}
}

// model is the replay policy written out independently of scan: the
// number of leading bytes Open keeps, or corrupt when it must refuse.
func model(data []byte) (keep int, corrupt bool) {
	lines := bytes.SplitAfter(data, []byte("\n"))
	for i, line := range lines {
		if !bytes.HasSuffix(line, []byte("\n")) {
			break // torn final bytes
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 && !json.Valid(trimmed) {
			// SplitAfter's final element is whatever follows the last
			// newline, so the tail is the line just before it.
			return keep, i != len(lines)-2
		}
		keep += len(line)
	}
	return keep, false
}

// FuzzReplay: for arbitrary file bytes Open never panics; it either
// refuses with ErrCorrupt, leaving the file untouched, or truncates to
// the line boundary the policy names and replays exactly the kept
// lines. One Append and a reopen then replay the kept lines plus the
// new one.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		keep, corrupt := model(data)
		var got []string
		l, err := Open(dir, name, collect(&got))
		if err != nil {
			if !corrupt || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open refused (corrupt=%v per policy): %v", corrupt, err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatal("refused Open changed the file")
			}
			return
		}
		defer l.Close()
		if corrupt {
			t.Fatal("Open accepted a file with interior corruption")
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, data[:keep]) {
			t.Fatalf("Open kept %d bytes, policy keeps %d", len(kept), keep)
		}
		var want []string
		for _, line := range strings.Split(string(kept), "\n") {
			if trimmed := strings.TrimSpace(line); trimmed != "" {
				want = append(want, trimmed)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("replayed %q, want %q", got, want)
		}
		const appended = `{"fuzz":1}`
		if _, err := l.Append([]byte(appended)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var again []string
		l2, err := Open(dir, name, collect(&again))
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer l2.Close()
		if want = append(want, appended); !slices.Equal(again, want) {
			t.Fatalf("reopen replayed %q, want %q", again, want)
		}
	})
}
