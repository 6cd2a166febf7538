// Command e2ebench is the end-to-end benchmark of the ntvsimd daemon:
// the repository's committed source of speed numbers, end to end and
// layer by layer.
//
// Each run builds ./cmd/ntvsimd from the checkout (untimed), starts a
// fresh daemon with two workers and the run ledger on, and drives it
// from this one process with a closed loop of two clients, one
// keep-alive connection each, at GOMAXPROCS=1. The unit of load and of
// latency is a study: a fixed set of sweeps or jobs that together
// answer one design question. Study i draws every input from
// rng.NewSub(seed, i); after the window every tenth study is
// re-evaluated in-process (sweep.RunSerial, experiments.RunCtx) and
// must match byte for byte.
//
// Workloads (see README.md for why each exists and what it exposes):
//
//	mc-study         4 Monte-Carlo sweeps × 3 Vdd on one node; sampling layers
//	ssta-study       4 mode-ssta sweeps × 21 never-repeated Vdd on one node
//	cached-replay    one 163-point pool resubmitted: all cache hits, serving path only
//	paper-artifacts  6 paper figures as jobs at 250 samples
//
// Usage (through the wrapper, from anywhere; paths are relative to the
// checkout root):
//
//	bash e2ebench/run.sh --workload <name> --seed N --seconds S --trace 0|1
//	bash e2ebench/run.sh run   -workload <name|all> -seed N [-seconds S] [-o out.json]
//	bash e2ebench/run.sh trace -workload <name|all> -seed N [-seconds S] [-o trace.json] [-chrome trace.chrome.json]
//	bash e2ebench/run.sh compare -parent 'a/*.json' -change 'b/*.json' [-bench BENCHMARK.json]
//
// run (the default, and --trace 0) prints every end-to-end metric as
// "workload metric value unit". trace (--trace 1) measures a plain and
// a traced half window, grafts the daemon's span trees under each
// study, times the in-process layer ladder and prints every per-layer
// metric. With a single workload the last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// compare judges two run sets against the bounds in BENCHMARK.json.
//
// Exit status is 1 when a served result differs from its in-process
// reference (or compare finds a regression), 2 on usage or environment
// errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/ntvsim/ntvsim/internal/telemetry"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		os.Exit(runCmd(false, args))
	case "trace":
		os.Exit(runCmd(true, args))
	case "compare":
		os.Exit(compareCmd(args))
	default:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown command %q (run, trace or compare)\n", cmd)
		os.Exit(2)
	}
}

// runCmd is the run and trace subcommands.
func runCmd(traceCmd bool, args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	repo := fs.String("repo", ".", "root of the ntvsim checkout to build and benchmark")
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the study inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics (same as the trace command)")
	out := fs.String("o", "", "write the reports as JSON to this path")
	chrome := fs.String("chrome", "", "traced runs: write the Chrome trace-event JSON (Perfetto) to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	trace := traceCmd || *traceFlag == 1
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := lookupWorkload(*name); ok {
		ws = []workload{w}
	}
	switch {
	case fs.NArg() > 0 || len(ws) == 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0:
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (one of %s, or all), a positive -seconds and -trace 0|1\n", workloadNames())
		return 2
	case *chrome != "" && !trace:
		fmt.Fprintln(os.Stderr, "e2ebench: -chrome needs a traced run")
		return 2
	}
	root, err := filepath.Abs(*repo)
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "cmd", "ntvsimd"))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s is not an ntvsim checkout: %v\n", *repo, err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	defer e.close()

	file := runFile{Schema: runSchema, Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(), NProc: runtime.NumCPU()}
	for _, w := range ws {
		rep, err := benchWorkload(ctx, e, w, *seed, *seconds, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		printReport(rep, trace)
		file.Reports = append(file.Reports, rep)
	}
	file.Revision = e.revision
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
	}
	if *chrome != "" {
		ct := telemetry.ChromeTrace{DisplayTimeUnit: "ms"}
		for i, rep := range file.Reports {
			part := chromeTrace(rep.outs, rep.origin, 2*i, rep.Workload)
			ct.TraceEvents = append(ct.TraceEvents, part.TraceEvents...)
		}
		if err := writeJSON(*chrome, ct); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
	}

	status, attempted, failed, correct := 0, 0, 0, true
	for _, r := range file.Reports {
		attempted += r.Attempted
		failed += r.Failed
		if r.Mismatches > 0 || r.Verified == 0 {
			correct, status = false, 1
		}
	}
	if len(file.Reports) == 1 {
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{correct, attempted, failed, file.Reports[0].Metrics})
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return status
}

// printReport prints one workload's metrics as "workload metric value
// unit" lines, then its study counts and results digest.
func printReport(r report, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	extras := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, k, r.Extra[k].Value, r.Extra[k].Unit)
	}
	fmt.Printf("%s n %d studies\n", r.Workload, r.Attempted)
	if !trace {
		fmt.Printf("%s study_p75_beyond %d studies\n", r.Workload, r.TailBeyond)
	}
	fmt.Printf("%s failed_frac %.6g frac\n", r.Workload, r.FailedFrac)
	fmt.Printf("%s verified %d studies (%d mismatched requests)\n", r.Workload, r.Verified, r.Mismatches)
	fmt.Printf("%s results_sha256 %s\n", r.Workload, r.ResultsSHA256)
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %s\n", r.Workload, e)
	}
}

// writeJSON writes v as indented JSON to path, creating its directory.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}
