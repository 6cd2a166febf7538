package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonWorkers is the daemon's worker-pool size: one per CPU of the
// two-CPU machine the benchmark was calibrated on, fixed so runs on
// other machines stay comparable with each other.
const daemonWorkers = 2

// clockTick is the unit of utime and stime in /proc/<pid>/stat: Linux
// reports them in USER_HZ, which is 100 on every architecture.
const clockTick = 10 * time.Millisecond

// buildDaemon compiles ./cmd/ntvsimd of the checkout at repo into bin.
func buildDaemon(ctx context.Context, repo, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ntvsimd")
	cmd.Dir = repo
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building ./cmd/ntvsimd: %w", err)
	}
	return nil
}

// daemon is one running ntvsimd process with its own data directory.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	stderr *tail
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startDaemon execs bin on a free loopback port with a fresh ledger in
// dataDir and returns once /healthz answers ok.
func startDaemon(ctx context.Context, bin, dataDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(daemonWorkers),
		"-data-dir", dataDir, "-log-level", "warn")
	d := &daemon{cmd: cmd, base: "http://" + addr, stderr: &tail{max: 8 << 10}, exited: make(chan struct{})}
	cmd.Stdout, cmd.Stderr = d.stderr, d.stderr
	// The daemon must not outlive the benchmark, even one killed hard.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ntvsimd: %w", err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitHealthy(ctx, 30*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls /healthz until the daemon reports ok, exits, or the
// timeout passes.
func (d *daemon) waitHealthy(ctx context.Context, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			var health struct {
				OK bool `json:"ok"`
			}
			err = json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && health.OK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("ntvsimd exited during start-up (%v): %s", d.err, d.stderr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ntvsimd not healthy after %v: %s", timeout, d.stderr)
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than ten seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuTicks returns the daemon's utime+stime in clock ticks.
func (d *daemon) cpuTicks() (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// peakRSSKB returns the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSKB() (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(b), "VmHWM")
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The command name in field 2 is parenthesised and
// may itself contain spaces and parentheses, so fields are counted from
// the last closing parenthesis.
func parseStatCPU(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3, the state
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB returns the kB value of one "Key:  N kB" line of
// /proc/<pid>/status.
func parseStatusKB(status, key string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: unexpected value %q", key, rest)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail keeps the last max bytes written to it: the daemon's stderr,
// quoted when it fails.
type tail struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// promSample is one scrape of the daemon's Prometheus exposition,
// keyed by series (metric name plus its label set).
type promSample map[string]float64

// parsePrometheus reads the text exposition format: one "series value"
// pair per line, comments and blank lines skipped.
func parsePrometheus(text string) (promSample, error) {
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// family sums every series of one metric family (all label sets).
func (p promSample) family(name string) float64 {
	sum := 0.0
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}
