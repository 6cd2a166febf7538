package main

import (
	"io"
	"testing"
)

// around returns n values spread ±spread around mid, in a fixed
// interleaved order so pairs with another set do not line up by rank.
func around(mid, spread float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		k := float64((i*7)%n)/float64(n-1) - 0.5 // -0.5 … 0.5
		out[i] = mid * (1 + 2*spread*k)
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"same code", around(100, 0.01, 10), around(100.2, 0.01, 10), "lower", 0.1, unchanged},
		{"slower beyond bound", around(100, 0.01, 10), around(120, 0.01, 10), "lower", 0.1, regressed},
		{"throughput drop beyond bound", around(50, 0.01, 10), around(40, 0.01, 10), "higher", 0.1, regressed},
		{"faster everywhere", around(100, 0.01, 10), around(90, 0.01, 10), "lower", 0.1, improved},
		{"noisier than the bound", around(100, 0.5, 10), around(101, 0.5, 10), "lower", 0.1, unresolved},
		{"wide but all better", around(100, 0.3, 10), around(10, 0.3, 10), "lower", 0.1, improved},
		{"slower within bound", around(100, 0.01, 10), around(105, 0.01, 10), "lower", 0.1, unchanged},
	} {
		if got := judge(tc.parent, tc.change, tc.better, tc.bound).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgeGainNeedsNineOfTenPairs(t *testing.T) {
	parent := around(100, 0.001, 10)
	change := around(90, 0.001, 10)
	change[0], change[1] = 200, 200 // two lost pairs: 8/10 wins
	if got := judge(parent, change, "lower", 0.25).Verdict; got == improved {
		t.Errorf("8/10 wins judged %s", got)
	}
	change[1] = 80 // 9/10
	if got := judge(parent, change, "lower", 0.25).Verdict; got != improved {
		t.Errorf("9/10 wins judged %s, want improved", got)
	}
}

func TestCompareRunsFlagsRegressionsAndDigests(t *testing.T) {
	spec := benchSpec{}
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"study_p50_s", "lower", 0.1})
	mk := func(vals []float64, digest string) []report {
		var rs []report
		for i, v := range vals {
			rs = append(rs, report{Workload: "mc-study", Seed: uint64(i + 1), ResultsSHA256: digest,
				Metrics: map[string]value{"study_p50_s": {v, "s"}}})
		}
		return rs
	}
	parent := map[string][]report{"mc-study": mk(around(1, 0.01, 10), "aa")}
	if !compareRuns(io.Discard, spec, parent, map[string][]report{"mc-study": mk(around(1.01, 0.01, 10), "aa")}) {
		t.Error("same code judged unacceptable")
	}
	if compareRuns(io.Discard, spec, parent, map[string][]report{"mc-study": mk(around(1.5, 0.01, 10), "aa")}) {
		t.Error("a 50% latency regression passed")
	}
	if compareRuns(io.Discard, spec, parent, map[string][]report{"mc-study": mk(around(1, 0.01, 10), "bb")}) {
		t.Error("a changed results digest passed")
	}
}
