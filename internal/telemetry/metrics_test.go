package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Total requests.")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters only go up
	g := r.Gauge("test_queue_depth", "Jobs waiting.")
	g.Set(7)
	g.Add(-2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_queue_depth Jobs waiting.
# TYPE test_queue_depth gauge
test_queue_depth 5
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total 4
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestLabelAndHelpEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_weird_total", "Help with \\ and\nnewline.", "name")
	v.With("a\"b\\c\nd").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP test_weird_total Help with \\ and\nnewline.`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `test_weird_total{name="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.7, 5, 100} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
	if h.Sum() != 106.25 {
		t.Errorf("sum = %v, want 106.25", h.Sum())
	}
	// Buckets must be cumulative: each bucket count >= the previous.
	counts := parseBucketCounts(t, out, "test_latency_seconds_bucket")
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Errorf("bucket counts not cumulative: %v", counts)
		}
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_dur_seconds", "Per-experiment duration.", []float64{1}, "experiment")
	v.With("fig4").Observe(0.5)
	v.With("fig4").Observe(2)
	v.With("fig6").Observe(0.1)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`test_dur_seconds_bucket{experiment="fig4",le="1"} 1`,
		`test_dur_seconds_bucket{experiment="fig4",le="+Inf"} 2`,
		`test_dur_seconds_count{experiment="fig4"} 2`,
		`test_dur_seconds_bucket{experiment="fig6",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

func TestFuncMetricsLatestWins(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_fn_gauge", "fn", func() float64 { return 1 })
	r.GaugeFunc("test_fn_gauge", "fn", func() float64 { return 2 })
	r.CounterFunc("test_fn_total", "fn", func() float64 { return 42 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "test_fn_gauge 2\n") {
		t.Errorf("latest GaugeFunc did not win:\n%s", out)
	}
	if !strings.Contains(out, "test_fn_total 42\n") {
		t.Errorf("CounterFunc missing:\n%s", out)
	}
}

// TestLabelledFuncSeries: func-backed series of labelled families
// render one sample per label value, read at exposition time, and the
// first registration of a series wins.
func TestLabelledFuncSeries(t *testing.T) {
	r := NewRegistry()
	held := map[string]float64{"job": 3, "sweep": 2}
	g := r.GaugeVec("test_held", "Held entries.", "kind")
	c := r.CounterVec("test_dropped_total", "Dropped entries.", "kind")
	for _, kind := range []string{"sweep", "job"} {
		g.Func(func() float64 { return held[kind] }, kind)
		c.Func(func() float64 { return 2 * held[kind] }, kind)
	}
	g.Func(func() float64 { return -1 }, "job") // ignored: already registered
	held["job"] = 4

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_dropped_total Dropped entries.
# TYPE test_dropped_total counter
test_dropped_total{kind="job"} 8
test_dropped_total{kind="sweep"} 4
# HELP test_held Held entries.
# TYPE test_held gauge
test_held{kind="job"} 4
test_held{kind="sweep"} 2
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_idem_total", "x")
	b := r.Counter("test_idem_total", "x")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("type-mismatched re-registration did not panic")
		}
	}()
	r.Gauge("test_idem_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9abc", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "x")
		}()
	}
}

func TestConcurrentCounterAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "x")
	h := r.Histogram("test_conc_seconds", "x", DefBuckets)
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %v, want %v", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %v, want %v", got, workers*per)
	}
	if math.Abs(h.Sum()-workers*per*0.01) > 1e-6 {
		t.Errorf("histogram sum = %v", h.Sum())
	}
}

// parseBucketCounts extracts the sample values of every line starting
// with prefix, in exposition order.
func parseBucketCounts(t *testing.T, out, prefix string) []float64 {
	t.Helper()
	var counts []float64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		counts = append(counts, v)
	}
	return counts
}
