// Package jsonlog is the durable append-only JSONL file behind the run
// ledger (internal/ledger) and the cluster shard journal
// (internal/cluster). It owns the whole on-disk discipline and nothing
// else: owners marshal their own records, keep their own in-memory
// view, and hand this package one line at a time.
//
// # Durability model
//
// Append writes one line and fsyncs it before returning, so a line
// acknowledged with a nil error is on disk: exactly one write and one
// fsync per call. Open replays the file on boot, passing every complete
// line and its byte offset to the owner's callback in file order. A
// crash mid-append leaves at most one torn final line — bytes without a
// trailing newline, or a complete-looking line the callback rejects
// with no complete line after it — and Open truncates it away so the
// next append starts on a clean line boundary. A rejected line anywhere
// else is interior corruption: Open refuses with ErrCorrupt and the
// line's byte offset rather than silently dropping the records behind
// it, and leaves the file as it found it. Lines that replay are
// byte-identical to what was appended.
//
// The log keeps no records in memory; owners index what their callback
// sees and what they append. Replay and Append both report the byte
// offset a line starts at, and ReadLine reads the line at such an
// offset back, so an owner may index offsets instead of records.
package jsonlog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("jsonlog: closed")

// ErrCorrupt marks an Open refused because a line other than the tail
// failed the replay callback.
var ErrCorrupt = errors.New("jsonlog: corrupt line")

// Log is one open JSONL file. All methods are safe for concurrent use.
type Log struct {
	mu  sync.Mutex
	f   *os.File // nil after Close
	end int64    // file size: the offset the next append starts at
}

// Open opens (creating dir and the file if needed) dir/name and replays
// it: replay receives every complete non-blank line, whitespace-trimmed,
// in file order, with the byte offset the line starts at. The slice is
// only valid during the call. A non-nil return marks the line corrupt:
// a torn tail is truncated away, any other corrupt line fails Open with
// ErrCorrupt.
func Open(dir, name string, replay func(off int64, line []byte) error) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	good, err := scan(f, name, replay)
	if err == nil {
		err = f.Truncate(good)
	}
	if err == nil {
		_, err = f.Seek(good, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, end: good}, nil
}

// scan replays f from the start and returns the byte offset just past
// the last line to keep.
func scan(f *os.File, name string, replay func(off int64, line []byte) error) (int64, error) {
	r := bufio.NewReaderSize(f, 1<<20)
	var good int64
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: a torn final write stays behind the
			// truncation point.
			return good, nil
		}
		if err != nil {
			return 0, fmt.Errorf("jsonlog: replay %s: %w", name, err)
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			if rerr := replay(good, trimmed); rerr != nil {
				if isTail(r) {
					return good, nil
				}
				return 0, fmt.Errorf("%w in %s at offset %d: %w", ErrCorrupt, name, good, rerr)
			}
		}
		good += int64(len(line))
	}
}

// isTail reports whether the reader has no further complete line — the
// just-rejected line is the file's tail.
func isTail(r *bufio.Reader) bool {
	_, err := r.ReadBytes('\n')
	return err == io.EOF
}

// Append durably appends line plus a terminating newline: one write,
// one fsync, and a nil error only once both succeed. It returns the
// byte offset the line starts at. line must not contain a newline (JSON
// encoders never emit one); its spare capacity may be used for the
// terminator.
func (l *Log) Append(line []byte) (int64, error) {
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, ErrClosed
	}
	off := l.end
	n, err := l.f.Write(line)
	l.end += int64(n)
	if err != nil {
		return 0, err
	}
	return off, l.f.Sync()
}

// ReadLine reads back the line starting at off — an offset replay or
// Append reported — whitespace-trimmed and without its newline, so the
// bytes equal what replay delivered or Append was given. It takes the
// append lock only to find the file and its size; the read runs outside
// it.
func (l *Log) ReadLine(off int64) ([]byte, error) {
	l.mu.Lock()
	f, end := l.f, l.end
	l.mu.Unlock()
	if f == nil {
		return nil, ErrClosed
	}
	if off < 0 || off >= end {
		return nil, fmt.Errorf("jsonlog: offset %d outside the log's %d bytes", off, end)
	}
	line, err := bufio.NewReader(io.NewSectionReader(f, off, end-off)).ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("jsonlog: read at offset %d: %w", off, err)
	}
	return bytes.TrimSpace(line), nil
}

// Close syncs and closes the file; later Appends return ErrClosed and
// later Closes do nothing.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
