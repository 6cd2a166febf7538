package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// studyJSON is the wire form of every request of one study.
func studyJSON(w workload, seed uint64, i int) []byte {
	var b bytes.Buffer
	for _, r := range w.study(seed, i).Requests {
		b.WriteString(r.path())
		b.Write(r.body())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestStudiesAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		for _, i := range []int{warmupIndex, 0, 7} {
			a, b := studyJSON(w, 42, i), studyJSON(w, 42, i)
			if !bytes.Equal(a, b) {
				t.Errorf("%s study %d: same seed gave different specs", w.Name, i)
			}
			if bytes.Equal(a, studyJSON(w, 43, i)) {
				t.Errorf("%s study %d: seeds 42 and 43 gave identical specs", w.Name, i)
			}
		}
		if w.Name != "cached-replay" && bytes.Equal(studyJSON(w, 42, 0), studyJSON(w, 42, 1)) {
			t.Errorf("%s: studies 0 and 1 are identical", w.Name)
		}
	}
}

func TestStudyShapes(t *testing.T) {
	for name, want := range map[string]struct{ requests, points int }{
		"mc-study":        {4, 12},
		"ssta-study":      {4, 84},
		"cached-replay":   {6, 163},
		"paper-artifacts": {6, 6},
	} {
		w, ok := lookupWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for i := 0; i < 8; i++ {
			st := w.study(1, i)
			if len(st.Requests) != want.requests || st.points() != want.points {
				t.Errorf("%s study %d: %d requests, %d points; want %d, %d",
					name, i, len(st.Requests), st.points(), want.requests, want.points)
			}
		}
	}
}

func TestNodesRotateEvenly(t *testing.T) {
	for _, name := range []string{"mc-study", "ssta-study"} {
		w, _ := lookupWorkload(name)
		count := map[string]int{}
		for i := 0; i < 40; i++ {
			for _, r := range w.study(5, i).Requests {
				if len(r.Sweep.Nodes) != 1 || r.Sweep.Nodes[0] != nodeOf(i) {
					t.Fatalf("%s study %d: nodes %v, want [%s]", name, i, r.Sweep.Nodes, nodeOf(i))
				}
			}
			count[nodeOf(i)]++
		}
		if len(count) != 4 {
			t.Errorf("%s: %d distinct nodes, want 4", name, len(count))
		}
		for node, n := range count {
			if n != 10 {
				t.Errorf("%s: node %s in %d of 40 studies, want 10", name, node, n)
			}
		}
	}
}

func TestSSTAStudiesNeverRepeatAVoltage(t *testing.T) {
	w, _ := lookupWorkload("ssta-study")
	seen := map[float64]int{}
	for i := 0; i < 50; i++ {
		v := w.study(3, i).Requests[0].Sweep.Vdd.From
		if j, dup := seen[v]; dup {
			t.Fatalf("studies %d and %d share the grid start %g V", j, i, v)
		}
		seen[v] = i
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric and workload lists
// the program reports in step with the root BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	for _, c := range []struct {
		name      string
		json, got []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.json), len(c.got))
			continue
		}
		for i := range c.got {
			if c.json[i] != c.got[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, c.json[i], c.got[i])
			}
		}
	}
}
