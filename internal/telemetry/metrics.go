package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry: package init functions across
// the repo register their metrics here, and the daemon's GET /metrics
// renders it.
var Default = NewRegistry()

// DefBuckets are the default histogram buckets for latencies in
// seconds, matching the Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

type metricType string

const (
	counterType   metricType = "counter"
	gaugeType     metricType = "gauge"
	histogramType metricType = "histogram"
)

// Registry is a set of named metric families renderable as Prometheus
// text exposition format. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with zero or more labelled children.
type family struct {
	name       string
	help       string
	typ        metricType
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]*sample       // keyed by rendered label pairs
	fn       func() float64           // func-backed families (single sample)
	histFn   func() HistogramSnapshot // func-backed histogram families
}

// sample is one labelled time series within a family.
type sample struct {
	labels string // rendered `key="value",...` or "" for unlabelled
	metric any    // *Counter, *Gauge, *Histogram or valueFunc
}

// valueFunc is a func-backed series of a labelled counter or gauge
// family, read at exposition time.
type valueFunc func() float64

// HistogramSnapshot is the point-in-time state a func-backed histogram
// reports at exposition time (see Registry.HistogramFunc). Counts are
// cumulative: Counts[i] is the number of observations ≤ Buckets[i].
type HistogramSnapshot struct {
	Buckets []float64 // sorted upper bounds; +Inf is implicit
	Counts  []uint64  // cumulative count per bucket, same length
	Count   uint64    // total observations (the +Inf bucket)
	Sum     float64   // sum of observations (may be an estimate)
}

// lookup returns the family with the given name, creating it on first
// use. Registration is idempotent; re-registering under a different
// type or label arity is a programming error and panics.
func (r *Registry) lookup(name, help string, typ metricType, labelNames []string, buckets []float64) *family {
	mustValidName(name)
	for _, l := range labelNames {
		mustValidName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s(%d labels), was %s(%d labels)",
				name, typ, len(labelNames), f.typ, len(f.labelNames)))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: labelNames,
		buckets:    buckets,
		children:   make(map[string]*sample),
	}
	r.families[name] = f
	return f
}

// child returns the series for the given label values, creating it with
// make on first use.
func (f *family) child(labelValues []string, make func() any) *sample {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q takes %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := renderLabels(f.labelNames, labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.children[key]
	if !ok {
		s = &sample{labels: key, metric: make()}
		f.children[key] = s
	}
	return s
}

// Counter is a monotonically increasing float64 value.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter by d; negative deltas are ignored
// (counters only go up).
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	addFloat(&c.bits, d)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 value that may go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments (or, with a negative delta, decrements) the gauge.
func (g *Gauge) Add(d float64) { addFloat(&g.bits, d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	upper   []float64 // sorted upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// addFloat atomically adds d to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Counter registers (or finds) an unlabelled counter family and returns
// its single series.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, counterType, nil, nil)
	return f.child(nil, func() any { return new(Counter) }).metric.(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, counterType, labelNames, nil)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues, func() any { return new(Counter) }).metric.(*Counter)
}

// Func registers the series for the given label values as read by
// calling fn at exposition time; fn must be monotonically
// non-decreasing. The first registration of a series wins, and a
// series is either func-backed or returned by With, never both.
func (v *CounterVec) Func(fn func() float64, labelValues ...string) {
	v.f.child(labelValues, func() any { return valueFunc(fn) })
}

// Gauge registers (or finds) an unlabelled settable gauge family and
// returns its single series.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, gaugeType, nil, nil)
	return f.child(nil, func() any { return new(Gauge) }).metric.(*Gauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, gaugeType, labelNames, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues, func() any { return new(Gauge) }).metric.(*Gauge)
}

// Func registers the series for the given label values as read by
// calling fn at exposition time. The first registration of a series
// wins, and a series is either func-backed or returned by With, never
// both.
func (v *GaugeVec) Func(fn func() float64, labelValues ...string) {
	v.f.child(labelValues, func() any { return valueFunc(fn) })
}

// GaugeFunc registers a gauge whose value is read by calling fn at
// exposition time. Re-registering replaces fn (latest wins), so a
// rebuilt server's closures take over cleanly.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, gaugeType, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterFunc registers a counter whose value is read by calling fn at
// exposition time; fn must be monotonically non-decreasing.
// Re-registering replaces fn (latest wins).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, counterType, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// HistogramFunc registers a histogram whose state is read by calling fn
// at exposition time — the bridge for histograms maintained elsewhere
// (the runtime/metrics GC-pause and scheduler-latency distributions).
// fn must return cumulative, monotonically non-decreasing bucket counts
// with Count ≥ the last bucket so the rendered +Inf bucket closes the
// series. Re-registering replaces fn (latest wins).
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot) {
	f := r.lookup(name, help, histogramType, nil, nil)
	f.mu.Lock()
	f.histFn = fn
	f.mu.Unlock()
}

// Histogram registers (or finds) an unlabelled histogram family with
// the given bucket upper bounds and returns its single series.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, histogramType, nil, buckets)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).metric.(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.lookup(name, help, histogramType, labelNames, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues, func() any { return newHistogram(v.f.buckets) }).metric.(*Histogram)
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families and series sorted by name for a
// deterministic scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for name, f := range r.families {
		names = append(names, name)
		fams[name] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		fams[name].write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	fn := f.fn
	histFn := f.histFn
	series := make([]*sample, 0, len(f.children))
	for _, s := range f.children {
		series = append(series, s)
	}
	f.mu.Unlock()
	sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(fn()))
		return
	}
	if histFn != nil {
		snap := histFn()
		for i, ub := range snap.Buckets {
			var c uint64
			if i < len(snap.Counts) {
				c = snap.Counts[i]
			}
			writeSample(b, f.name, "_bucket", "", `le="`+formatFloat(ub)+`"`, float64(c))
		}
		writeSample(b, f.name, "_bucket", "", `le="+Inf"`, float64(snap.Count))
		writeSample(b, f.name, "_sum", "", "", snap.Sum)
		writeSample(b, f.name, "_count", "", "", float64(snap.Count))
		return
	}
	for _, s := range series {
		switch m := s.metric.(type) {
		case *Counter:
			writeSample(b, f.name, "", s.labels, "", m.Value())
		case *Gauge:
			writeSample(b, f.name, "", s.labels, "", m.Value())
		case valueFunc:
			writeSample(b, f.name, "", s.labels, "", m())
		case *Histogram:
			cum := uint64(0)
			for i, ub := range m.upper {
				cum += m.counts[i].Load()
				writeSample(b, f.name, "_bucket", s.labels,
					`le="`+formatFloat(ub)+`"`, float64(cum))
			}
			// +Inf bucket equals the total count by definition.
			writeSample(b, f.name, "_bucket", s.labels, `le="+Inf"`, float64(m.Count()))
			writeSample(b, f.name, "_sum", s.labels, "", m.Sum())
			writeSample(b, f.name, "_count", s.labels, "", float64(m.Count()))
		}
	}
}

// writeSample emits one exposition line, merging the series labels with
// an optional extra label (the histogram "le").
func writeSample(b *strings.Builder, name, suffix, labels, extra string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	switch {
	case labels != "" && extra != "":
		b.WriteString("{" + labels + "," + extra + "}")
	case labels != "":
		b.WriteString("{" + labels + "}")
	case extra != "":
		b.WriteString("{" + extra + "}")
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// renderLabels renders `k1="v1",k2="v2"` with label-value escaping.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mustValidName panics unless name is a valid Prometheus metric/label
// name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidName(name string) {
	if name == "" {
		panic("telemetry: empty metric or label name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric or label name %q", name))
		}
	}
}
