package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// Chrome-trace process ids: client spans and grafted daemon spans are
// drawn as two processes.
const (
	clientPID = 1
	daemonPID = 2
)

// span is one interval of the benchmark trace: a study, a client call,
// or a daemon span grafted from GET /debug/trace/{id}.
type span struct {
	Name       string
	Start, End time.Time
	Children   []*span
	pid        int
}

// add appends a finished child span; a nil receiver (tracing off)
// records nothing.
func (s *span) add(name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.Children = append(s.Children, &span{Name: name, Start: start, End: end, pid: s.pid})
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// selfTime is the span's duration minus the union of its children's
// intervals, each clipped to the span: the time the layer spent in
// itself rather than waiting on the layers it called.
func selfTime(s *span) time.Duration {
	type interval struct{ a, b time.Time }
	var ivs []interval
	for _, c := range s.Children {
		a, b := c.Start, c.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	for i := 0; i < len(ivs); {
		cur := ivs[i]
		for i++; i < len(ivs) && !ivs[i].a.After(cur.b); i++ {
			if ivs[i].b.After(cur.b) {
				cur.b = ivs[i].b
			}
		}
		covered += cur.b.Sub(cur.a)
	}
	return s.dur() - covered
}

// fromSnapshot converts a daemon span subtree into trace spans.
func fromSnapshot(s telemetry.SpanSnapshot) *span {
	sp := &span{Name: s.Name, Start: s.Start, pid: daemonPID,
		End: s.Start.Add(time.Duration(s.DurationMS * float64(time.Millisecond)))}
	for _, c := range s.Children {
		sp.Children = append(sp.Children, fromSnapshot(c))
	}
	return sp
}

// graftDaemonSpans fetches the daemon's span tree of every request of
// the given studies and grafts it under the study's client span.
func graftDaemonSpans(c *httpClient, outs []outcome) error {
	for i := range outs {
		o := &outs[i]
		if o.Trace == nil || o.Err != "" {
			continue
		}
		o.Daemon = make([]*span, len(o.IDs))
		for k, id := range o.IDs {
			status, body, err := c.call(http.MethodGet, "/debug/trace/"+id, nil)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("GET /debug/trace/%s: status %d (%v): %.200s", id, status, err, body)
			}
			var snap telemetry.TraceSnapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				return fmt.Errorf("decoding trace %s: %w", id, err)
			}
			o.Daemon[k] = fromSnapshot(snap.Root)
			o.Trace.Children = append(o.Trace.Children, o.Daemon[k])
		}
	}
	return nil
}

// spanLayerMetrics derives the span-based per-layer metrics of a traced
// window. Client-call medians cover every study; daemon-span metrics
// cover the grafted studies and are emitted only for the layers the
// workload exercises (a cached shard or a job has no shard span).
func spanLayerMetrics(outs []outcome) (universal, specific map[string]float64) {
	calls := map[string][]float64{}
	var dispatchSelf, queueWait, firstShard, shard, jobQueue, jobRun []float64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, o := range outs {
		if o.Trace == nil || o.Err != "" {
			continue
		}
		for _, c := range o.Trace.Children {
			if c.pid == clientPID {
				calls[c.Name] = append(calls[c.Name], ms(c.dur()))
			}
		}
		for _, j := range o.Jobs {
			jobQueue = append(jobQueue, ms(j.Queued))
			jobRun = append(jobRun, ms(j.Ran))
		}
		for k, root := range o.Daemon {
			if root == nil || o.Requested[k].Sweep == nil {
				continue
			}
			dispatchSelf = append(dispatchSelf, ms(selfTime(root)))
			var first time.Time
			for _, sh := range root.Children {
				if !strings.Contains(sh.Name, "/shard/") {
					continue
				}
				queueWait = append(queueWait, ms(sh.Start.Sub(root.Start)))
				shard = append(shard, ms(sh.dur()))
				if first.IsZero() || sh.End.Before(first) {
					first = sh.End
				}
			}
			if !first.IsZero() {
				firstShard = append(firstShard, ms(first.Sub(root.Start)))
			}
		}
	}
	universal = map[string]float64{
		"ntvsimd.post_ms_p50":       median(calls["post"]),
		"ntvsimd.poll_ms_p50":       median(calls["poll"]),
		"ntvsimd.result_get_ms_p50": median(calls["result_get"]),
	}
	specific = map[string]float64{}
	for name, xs := range map[string][]float64{
		"sweep.dispatch_self_ms_p50": dispatchSelf,
		"sweep.queue_wait_ms_p50":    queueWait,
		"sweep.first_shard_ms_p50":   firstShard,
		"sweep.shard_ms_p50":         shard,
		"jobs.queue_wait_ms_p50":     jobQueue,
		"jobs.run_ms_p50":            jobRun,
	} {
		if len(xs) > 0 {
			specific[name] = median(xs)
		}
	}
	return universal, specific
}

// chromeTrace renders a workload's traced window as Chrome trace-event
// JSON (loadable in Perfetto), with times relative to origin and
// process ids offset by pidBase so several workloads share one file.
// Each client is one thread of the client process, holding its studies
// and their post/poll/result_get calls; daemon spans go to a second
// process, each request root and each shard or job subtree on the
// first thread free at its start, so concurrent work never overlaps on
// one thread.
func chromeTrace(outs []outcome, origin time.Time, pidBase int, label string) telemetry.ChromeTrace {
	out := telemetry.ChromeTrace{DisplayTimeUnit: "ms"}
	us := func(t time.Time) float64 { return float64(t.Sub(origin)) / float64(time.Microsecond) }
	var emit func(s *span, tid int)
	emit = func(s *span, tid int) {
		out.TraceEvents = append(out.TraceEvents, telemetry.ChromeEvent{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: float64(s.dur()) / float64(time.Microsecond),
			PID: pidBase + s.pid, TID: tid,
		})
		for _, c := range s.Children {
			if c.pid == s.pid {
				emit(c, tid)
			}
		}
	}
	for _, p := range []struct {
		pid  int
		name string
	}{{clientPID, "e2ebench client"}, {daemonPID, "ntvsimd"}} {
		out.TraceEvents = append(out.TraceEvents, telemetry.ChromeEvent{
			Name: "process_name", Ph: "M", PID: pidBase + p.pid, Args: map[string]any{"name": label + " " + p.name},
		})
	}
	var units []*span // daemon request roots (alone) and their subtrees
	for _, o := range outs {
		if o.Trace == nil {
			continue
		}
		emit(o.Trace, o.Lane)
		for _, root := range o.Daemon {
			if root == nil {
				continue
			}
			units = append(units, &span{Name: root.Name, Start: root.Start, End: root.End, pid: daemonPID})
			units = append(units, root.Children...)
		}
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].Start.Before(units[j].Start) })
	var laneEnds []time.Time
	for _, u := range units {
		tid := -1
		for i, e := range laneEnds {
			if !u.Start.Before(e) {
				tid, laneEnds[i] = i, u.End
				break
			}
		}
		if tid < 0 {
			tid = len(laneEnds)
			laneEnds = append(laneEnds, u.End)
		}
		emit(u, tid+1)
	}
	return out
}
