package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Load shape: a closed loop of two clients, each on one keep-alive
// connection, with the benchmark process held to one CPU while it
// measures so it takes as little of the machine from the daemon as it
// can.
const (
	clients = 2
	// setupStarts is how many fresh daemons a run sets up; setup_s is
	// the median, because a single start varied twofold and the median
	// of three still moved a fifth between two sets of runs.
	setupStarts = 5
	// graftStudies bounds the studies whose daemon span trees the traced
	// run fetches after its window.
	graftStudies = 100
	// tailPercentile is the latency tail reported: the highest round
	// percentile with at least ten studies beyond it in every workload's
	// window (the slowest, paper-artifacts, completes 40 to 60).
	tailPercentile = 75
)

// metricDef names one reported metric, its unit and its good direction.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a plain run reports: what a user of the
// daemon sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"points_per_s", "1/s", "higher"},
	{"study_p50_s", "s", "lower"},
	{"study_p75_s", "s", "lower"},
	{"cpu_ms_per_point", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports on every workload. The
// span metrics of layers only some workloads exercise (sweep shards,
// job queues) are reported alongside them as extras.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"ntvsimd.post_ms_p50", "ms", "lower"},
		{"ntvsimd.poll_ms_p50", "ms", "lower"},
		{"ntvsimd.result_get_ms_p50", "ms", "lower"},
		{"ntvsimd.result_kb_per_study", "KB", "lower"},
		{"ntvsimd.requests_per_study", "count", "lower"},
		{"ntvsimd.http_errors", "count", "lower"},
		{"sweep.run_serial_ms_per_study", "ms", "lower"},
		{"sweep.shards_cached_frac", "frac", "higher"},
	}
	for _, id := range mcKernels {
		defs = append(defs, metricDef{"sweep.kernel_eval_ms." + id, "ms", "lower"})
	}
	for _, id := range sstaKernels {
		defs = append(defs, metricDef{"sweep.kernel_eval_ms." + id + ".ssta", "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"resultcache.hit_ratio", "frac", "higher"},
		metricDef{"resultcache.evictions", "count", "lower"},
		metricDef{"resultcache.key_us", "us", "lower"},
	)
	for _, id := range paperArtifacts {
		defs = append(defs, metricDef{"experiments.run_ms." + id, "ms", "lower"})
	}
	return append(defs,
		metricDef{"montecarlo.samples_per_point", "count", "lower"},
		metricDef{"montecarlo.ns_per_sample.p1", "ns", "lower"},
		metricDef{"montecarlo.ns_per_sample.pN", "ns", "lower"},
		metricDef{"simd.chip_draw_us", "us", "lower"},
		metricDef{"simd.allocs_per_chip", "count", "lower"},
		metricDef{"simd.law_build_ms", "ms", "lower"},
		metricDef{"ssta.law_build_ms", "ms", "lower"},
		metricDef{"ssta.chip_quantile_us", "us", "lower"},
		metricDef{"ssta.law_builds_per_point", "count", "lower"},
		metricDef{"device.chain_moments_ms", "ms", "lower"},
		metricDef{"device.gate_moments_ms", "ms", "lower"},
		metricDef{"device.gate_delay_ns", "ns", "lower"},
		metricDef{"variation.chain_delay_us", "us", "lower"},
		metricDef{"sram.table_build_ms", "ms", "lower"},
		metricDef{"sram.chip_sample_us", "us", "lower"},
		metricDef{"sram.tables_built_per_point", "count", "lower"},
		metricDef{"importance.ns_per_sample", "ns", "lower"},
		metricDef{"importance.ess_ratio", "frac", "higher"},
		metricDef{"ledger.records_per_study", "count", "lower"},
		metricDef{"go.alloc_mb_per_point", "MB", "lower"},
		metricDef{"go.gc_cycles_per_study", "count", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}()

// value is one reported metric value with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's result in one run.
type report struct {
	Workload      string           `json:"workload"`
	Seed          uint64           `json:"seed"`
	Seconds       float64          `json:"seconds"`
	Trace         bool             `json:"trace"`
	Attempted     int              `json:"attempted"` // studies
	Failed        int              `json:"failed"`
	FailedFrac    float64          `json:"failed_frac"`
	Verified      int              `json:"verified"`
	Mismatches    int              `json:"mismatches"`
	ResultsSHA256 string           `json:"results_sha256"`
	TailBeyond    int              `json:"study_p75_beyond"` // studies slower than study_p75_s
	Metrics       map[string]value `json:"metrics"`
	Extra         map[string]value `json:"extra,omitempty"`
	Errors        []string         `json:"errors,omitempty"` // the first few study failures
	outs          []outcome        // traced window, for the Chrome export
	origin        time.Time
}

// env is one benchmark invocation: the checkout, the daemon binary built
// from it, and a scratch directory removed on exit.
type env struct {
	bin      string
	scratch  string
	starts   int
	revision string // the daemon's build revision, read at the first start
}

// newEnv builds the checkout's daemon under .bench_build/ (the build is
// not timed) and creates the invocation's scratch directory.
func newEnv(ctx context.Context, repo string) (*env, error) {
	build := filepath.Join(repo, ".bench_build")
	e := &env{bin: filepath.Join(build, "bin", "ntvsimd"),
		scratch: filepath.Join(build, "run", fmt.Sprint(os.Getpid()))}
	if err := buildDaemon(ctx, repo, e.bin); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.scratch) }

// setup starts a fresh daemon with its own data directory and runs one
// untimed warm-up study — on cached-replay, the pool prefill — returning
// the daemon and the time from exec to warm-up done.
func (e *env) setup(ctx context.Context, w workload, seed uint64) (*daemon, time.Duration, error) {
	e.starts++
	dir := filepath.Join(e.scratch, fmt.Sprintf("daemon-%d", e.starts))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, err := startDaemon(ctx, e.bin, dir)
	if err != nil {
		return nil, 0, err
	}
	c := newHTTPClient(d.base, 0)
	defer c.close()
	if o := c.runStudy(w.study(seed, warmupIndex), false, false); o.Err != "" {
		d.stop()
		return nil, 0, fmt.Errorf("%s warm-up: %s", w.Name, o.Err)
	}
	took := time.Since(t0)
	if e.starts == 1 {
		p, err := scrape(d)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		e.revision = revision(p)
	}
	return d, took, nil
}

// window is one timed closed-loop window against a daemon.
type window struct {
	outs       []outcome // by study index
	start, end time.Time
	cpuTicks   uint64
	peakKB     uint64
	httpErrors int
}

// ok returns the grid points and the latencies of the successful
// studies.
func (w window) ok() (points int, lat []float64) {
	for _, o := range w.outs {
		if o.Err == "" {
			points += o.Points
			lat = append(lat, o.Latency.Seconds())
		}
	}
	return points, lat
}

// pointsPerSecond is the window's throughput of successful grid points.
func (w window) pointsPerSecond() float64 {
	points, _ := w.ok()
	return float64(points) / w.end.Sub(w.start).Seconds()
}

// runWindow drives d with the closed loop for dur: clients take study
// indices 0, 1, 2, … in turn and start no study after dur has passed
// and the first rssAt studies have started; the window ends when the
// last study started finishes. The daemon's VmHWM is read when the
// rssAt-th study completes (at the end if rssAt is 0 or never reached),
// so it prices a fixed amount of work, not the window's throughput.
// limit > 0 also stops after that many studies. Every verifyEvery-th
// study keeps its served results; trace records client spans.
func runWindow(ctx context.Context, d *daemon, w workload, seed uint64, dur time.Duration, limit, rssAt int, trace bool) (window, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var win window
	cpu0, err := d.cpuTicks()
	if err != nil {
		return win, err
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		wg      sync.WaitGroup
		peakErr error
	)
	win.start = time.Now()
	deadline := win.start.Add(dur)
	for lane := 1; lane <= clients; lane++ {
		c := newHTTPClient(d.base, lane)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= limit) || (i >= rssAt && !time.Now().Before(deadline)) {
					break
				}
				o := c.runStudy(w.study(seed, i), i%verifyEvery == 0, trace)
				mu.Lock()
				win.outs = append(win.outs, o)
				if len(win.outs) == rssAt {
					win.peakKB, peakErr = d.peakRSSKB()
				}
				mu.Unlock()
			}
			mu.Lock()
			win.httpErrors += c.errors
			mu.Unlock()
		}()
	}
	wg.Wait()
	win.end = time.Now()
	if err := ctx.Err(); err != nil {
		return win, err
	}
	if peakErr != nil {
		return win, peakErr
	}
	cpu1, err := d.cpuTicks()
	if err != nil {
		return win, err
	}
	win.cpuTicks = cpu1 - cpu0
	if win.peakKB == 0 {
		if win.peakKB, err = d.peakRSSKB(); err != nil {
			return win, err
		}
	}
	sort.Slice(win.outs, func(i, j int) bool { return win.outs[i].Index < win.outs[j].Index })
	return win, nil
}

// scrape reads the daemon's Prometheus exposition.
func scrape(d *daemon) (promSample, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parsePrometheus(string(b))
}

var revisionLabel = regexp.MustCompile(`revision="([^"]*)"`)

// revision returns the source revision the daemon was built from, as
// its ntvsim_build_info metric reports it ("" outside a git checkout).
func revision(p promSample) string {
	for series := range p {
		if m := revisionLabel.FindStringSubmatch(series); m != nil {
			return m[1]
		}
	}
	return ""
}

// ledgerRecords returns the number of records in the daemon's run
// ledger, waiting up to two seconds for it to reach want: sweeps are
// recorded asynchronously once they finish.
func ledgerRecords(d *daemon, want int) (int, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(d.base + "/v1/runs?limit=1")
		if err != nil {
			return 0, err
		}
		var page struct {
			Total int `json:"total"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("decoding /v1/runs: %w", err)
		}
		if page.Total >= want || time.Now().After(deadline) {
			return page.Total, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tally fills the attempted/failed counts and the first few errors.
func (r *report) tally(wins ...window) {
	for _, w := range wins {
		for _, o := range w.outs {
			r.Attempted++
			if o.Err != "" {
				r.Failed++
				if len(r.Errors) < 5 {
					r.Errors = append(r.Errors, fmt.Sprintf("study %d: %s", o.Index, o.Err))
				}
			}
		}
	}
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}
}

// benchWorkload runs one workload. A plain run sets up setupStarts
// daemons (setup_s is their median), measures the closed loop on the
// last for seconds and verifies the served results. A traced run
// measures a plain window and a traced window of seconds/2 each, the
// traced one on a fresh daemon replaying the same studies, then grafts
// daemon spans, reads counter deltas and runs the in-process ladder.
func benchWorkload(ctx context.Context, e *env, w workload, seed uint64, seconds float64, trace bool) (report, error) {
	rep := report{Workload: w.Name, Seed: seed, Seconds: seconds, Trace: trace, Metrics: map[string]value{}}
	starts, dur, rssAt := setupStarts, time.Duration(seconds*float64(time.Second)), w.RSSAt
	if trace {
		starts, dur, rssAt = 1, dur/2, 0
	}
	var setups []float64
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for k := 0; k < starts; k++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, took, err = e.setup(ctx, w, seed); err != nil {
			return rep, err
		}
		setups = append(setups, took.Seconds())
	}
	plain, err := runWindow(ctx, d, w, seed, dur, 0, rssAt, false)
	if err != nil {
		return rep, err
	}
	ver := &verifier{refs: map[string]reference{}}
	check, err := ver.verify(ctx, plain.outs)
	if err != nil {
		return rep, err
	}
	rep.Verified, rep.Mismatches, rep.ResultsSHA256 = check.Verified, check.Mismatches, check.Digest
	if !trace {
		rep.tally(plain)
		points, lat := plain.ok()
		if points == 0 {
			return rep, fmt.Errorf("%s: no study succeeded: %v", w.Name, rep.Errors)
		}
		rep.TailBeyond = beyond(len(lat), tailPercentile)
		vals := map[string]float64{
			"setup_s":          median(setups),
			"points_per_s":     plain.pointsPerSecond(),
			"study_p50_s":      percentile(lat, 50),
			"study_p75_s":      percentile(lat, tailPercentile),
			"cpu_ms_per_point": float64(plain.cpuTicks) * float64(clockTick/time.Millisecond) / float64(points),
			"rss_peak_mb":      float64(plain.peakKB) / 1024,
		}
		for _, def := range endToEnd {
			rep.Metrics[def.Name] = value{vals[def.Name], def.Unit}
		}
		return rep, nil
	}

	d.stop()
	if d, _, err = e.setup(ctx, w, seed); err != nil {
		return rep, err
	}
	before, err := scrape(d)
	if err != nil {
		return rep, err
	}
	runs0, err := ledgerRecords(d, 0)
	if err != nil {
		return rep, err
	}
	traced, err := runWindow(ctx, d, w, seed, dur, 0, 0, true)
	if err != nil {
		return rep, err
	}
	rep.tally(plain, traced)
	requests := 0
	for _, o := range traced.outs {
		if o.Err == "" {
			requests += len(o.Requested)
		}
	}
	runs1, err := ledgerRecords(d, runs0+requests)
	if err != nil {
		return rep, err
	}
	after, err := scrape(d)
	if err != nil {
		return rep, err
	}
	c := newHTTPClient(d.base, 0)
	err = graftDaemonSpans(c, traced.outs[:min(len(traced.outs), graftStudies)])
	c.close()
	if err != nil {
		return rep, err
	}
	check, err = ver.verify(ctx, traced.outs)
	if err != nil {
		return rep, err
	}
	rep.Verified += check.Verified
	rep.Mismatches += check.Mismatches
	ladder, err := runLadder(ctx, w, seed)
	if err != nil {
		return rep, err
	}

	points, lat := traced.ok()
	studies := float64(len(lat))
	if points == 0 {
		return rep, fmt.Errorf("%s: no traced study succeeded: %v", w.Name, rep.Errors)
	}
	delta := func(family string) float64 { return after.family(family) - before.family(family) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var calls int
	var resultKB float64
	for _, o := range traced.outs {
		if o.Err == "" {
			calls += o.Calls
			resultKB += o.ResultKB
		}
	}
	universal, specific := spanLayerMetrics(traced.outs)
	vals := map[string]float64{
		"ntvsimd.result_kb_per_study":   resultKB / studies,
		"ntvsimd.requests_per_study":    float64(calls) / studies,
		"ntvsimd.http_errors":           float64(traced.httpErrors),
		"sweep.run_serial_ms_per_study": ver.serialMSPerStudy(),
		"sweep.shards_cached_frac":      ratio(delta("ntvsim_sweep_shards_cached"), delta("ntvsim_sweep_shards_total")),
		"resultcache.hit_ratio": ratio(delta("ntvsimd_cache_hits_total"),
			delta("ntvsimd_cache_hits_total")+delta("ntvsimd_cache_misses_total")),
		"resultcache.evictions":        delta("ntvsimd_cache_evictions_total"),
		"montecarlo.samples_per_point": delta("ntvsim_mc_samples_evaluated_total") / float64(points),
		"ssta.law_builds_per_point":    delta("ntvsim_ssta_law_builds_total") / float64(points),
		"sram.tables_built_per_point":  delta("ntvsim_sram_tables_built_total") / float64(points),
		"ledger.records_per_study":     float64(runs1-runs0) / studies,
		"go.alloc_mb_per_point":        delta("ntvsim_go_alloc_bytes_total") / (1 << 20) / float64(points),
		"go.gc_cycles_per_study":       delta("ntvsim_go_gc_cycles_total") / studies,
		"trace.overhead_pct":           100 * (1 - traced.pointsPerSecond()/plain.pointsPerSecond()),
	}
	for _, m := range []map[string]float64{universal, ladder} {
		for k, v := range m {
			vals[k] = v
		}
	}
	for _, def := range perLayer {
		v, ok := vals[def.Name]
		if !ok {
			return rep, fmt.Errorf("%s: traced run produced no %s", w.Name, def.Name)
		}
		rep.Metrics[def.Name] = value{v, def.Unit}
	}
	rep.Extra = map[string]value{}
	for k, v := range specific {
		rep.Extra[k] = value{v, "ms"}
	}
	rep.outs, rep.origin = traced.outs, traced.start
	return rep, nil
}
