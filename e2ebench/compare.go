package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads: each
// end-to-end metric's good direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runFile is what run and trace write with -o.
type runFile struct {
	Schema    string   `json:"schema"`
	Generated string   `json:"generated"`
	GoVersion string   `json:"go"`
	NProc     int      `json:"nproc"`
	Revision  string   `json:"revision"`
	Reports   []report `json:"reports"`
}

const runSchema = "ntvsim.e2ebench/v1"

// Verdicts of one (workload, metric) comparison.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judgement is the comparison of one metric between two run sets.
type judgement struct {
	Parent, Change [3]float64 // quartiles (Q1, median, Q3)
	Worse          float64    // relative worsening of the change's median
	Spread         float64    // widest side's IQR over its median
	Wins, Pairs    int
	Verdict        string
}

// judge compares paired runs of one metric. The change has improved
// when it wins at least nine of every ten pairs (ties count for
// neither) and the medians differ by more than the parent's IQR; it has
// regressed when its median is worse by more than bound; the result is
// unresolved when either side's spread exceeds bound, unless every
// change run beats every parent run; otherwise unchanged.
func judge(parent, change []float64, better string, bound float64) judgement {
	var j judgement
	j.Parent[0], j.Parent[1], j.Parent[2] = quartiles(parent)
	j.Change[0], j.Change[1], j.Change[2] = quartiles(change)
	sign := 1.0 // +1 when larger is worse
	if better == "higher" {
		sign = -1
	}
	beats := func(c, p float64) bool { return sign*(c-p) < 0 }
	j.Pairs = min(len(parent), len(change))
	for i := 0; i < j.Pairs; i++ {
		if beats(change[i], parent[i]) {
			j.Wins++
		}
	}
	pm, cm := j.Parent[1], j.Change[1]
	if pm != 0 {
		j.Worse = sign * (cm - pm) / math.Abs(pm)
		j.Spread = (j.Parent[2] - j.Parent[0]) / math.Abs(pm)
	}
	if cm != 0 {
		j.Spread = max(j.Spread, (j.Change[2]-j.Change[0])/math.Abs(cm))
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && beats(c, p)
		}
	}
	switch {
	case j.Pairs > 0 && 10*j.Wins >= 9*j.Pairs && beats(cm, pm) && math.Abs(cm-pm) > j.Parent[2]-j.Parent[0]:
		j.Verdict = improved
	case j.Worse > bound:
		j.Verdict = regressed
	case j.Spread > bound && !allBetter:
		j.Verdict = unresolved
	default:
		j.Verdict = unchanged
	}
	return j
}

// loadRuns reads every run file matching the globs and returns their
// reports grouped by workload, each group sorted by seed so two sets
// with the same seeds pair run for run.
func loadRuns(globs ...string) (map[string][]report, error) {
	out := map[string][]report{}
	for _, g := range globs {
		paths, err := filepath.Glob(g)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no run files match %q", g)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var f runFile
			if err := json.Unmarshal(b, &f); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			if f.Schema != runSchema {
				return nil, fmt.Errorf("%s: schema %q, want %q", p, f.Schema, runSchema)
			}
			for _, r := range f.Reports {
				if !r.Trace {
					out[r.Workload] = append(out[r.Workload], r)
				}
			}
		}
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// compareRuns prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict, then flags seeds whose
// results_sha256 differ between or within the sets. It reports whether
// the change is acceptable: nothing regressed and every digest agrees.
func compareRuns(w io.Writer, spec benchSpec, parent, change map[string][]report) bool {
	ok := true
	fmt.Fprintf(w, "%-16s %-18s %12s %25s %12s %25s %8s %7s %5s  %s\n",
		"workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "worse", "spread", "wins", "verdict")
	for _, wl := range workloads {
		ps, cs := parent[wl.Name], change[wl.Name]
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			j := judge(metricValues(ps, m.Name), metricValues(cs, m.Name), m.Better, m.Bound)
			if j.Verdict == regressed {
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-18s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %+7.2f%% %6.2f%% %2d/%-2d  %s\n",
				wl.Name, m.Name, j.Parent[1], j.Parent[0], j.Parent[2], j.Change[1], j.Change[0], j.Change[2],
				100*j.Worse, 100*j.Spread, j.Wins, j.Pairs, j.Verdict)
		}
		digests := map[uint64]map[string]bool{}
		for _, r := range append(append([]report(nil), ps...), cs...) {
			if digests[r.Seed] == nil {
				digests[r.Seed] = map[string]bool{}
			}
			digests[r.Seed][r.ResultsSHA256] = true
		}
		seeds := make([]uint64, 0, len(digests))
		for s := range digests {
			seeds = append(seeds, s)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, s := range seeds {
			if len(digests[s]) > 1 {
				ok = false
				fmt.Fprintf(w, "%-16s results_sha256 differs for seed %d: %d distinct digests\n", wl.Name, s, len(digests[s]))
			}
		}
	}
	return ok
}

// metricValues lists one metric across reports, in report order.
func metricValues(rs []report, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareCmd is the compare subcommand: it exits 1 when a metric
// regressed or a digest differs.
func compareCmd(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parentGlob := fs.String("parent", "", "glob of the parent's run files (written by run -o)")
	changeGlob := fs.String("change", "", "glob of the change's run files")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentGlob == "" || *changeGlob == "" || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare -parent 'glob' -change 'glob' [-bench BENCHMARK.json]")
		return 2
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *benchPath, err)
		return 2
	}
	parent, err := loadRuns(*parentGlob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	change, err := loadRuns(*changeGlob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	if !compareRuns(os.Stdout, spec, parent, change) {
		return 1
	}
	return 0
}
