package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &span{Name: "root", Start: at(0), End: at(100)}
	s.add("a", at(10), at(30))
	s.add("b", at(20), at(50))  // overlaps a: union [10, 50]
	s.add("c", at(60), at(70))  // disjoint
	s.add("d", at(65), at(68))  // nested in c
	s.add("e", at(90), at(120)) // clipped to [90, 100]
	s.add("f", at(-5), at(5))   // clipped to [0, 5]
	// covered: 5 + 40 + 10 + 10 = 65 ms
	if got, want := selfTime(s), 35*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	leaf := &span{Start: at(0), End: at(7)}
	if got := selfTime(leaf); got != 7*time.Millisecond {
		t.Errorf("leaf selfTime = %v, want 7ms", got)
	}
}

func TestChromeTraceThreadsNeverOverlap(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := &span{Name: "sw1", Start: at(0), End: at(100), pid: daemonPID}
	for _, iv := range [][2]int{{5, 60}, {10, 40}, {45, 90}, {62, 95}} {
		root.Children = append(root.Children, &span{Name: "shard", Start: at(iv[0]), End: at(iv[1]), pid: daemonPID})
	}
	study := &span{Name: "study/0", Start: at(0), End: at(110), pid: clientPID}
	study.add("post", at(0), at(1))
	study.add("result_get", at(100), at(110))
	study.Children = append(study.Children, root)
	ct := chromeTrace([]outcome{{Lane: 1, Trace: study, Daemon: []*span{root}}}, t0, 0, "w")

	type thread struct{ pid, tid int }
	byThread := map[thread][][2]float64{}
	daemonEvents := 0
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.PID == daemonPID {
			daemonEvents++
		}
		k := thread{ev.PID, ev.TID}
		byThread[k] = append(byThread[k], [2]float64{ev.Ts, ev.Ts + ev.Dur})
	}
	if daemonEvents != 5 {
		t.Errorf("%d daemon events, want the root and 4 shards", daemonEvents)
	}
	// Events on one thread must nest or be disjoint.
	for k, ivs := range byThread {
		for i := range ivs {
			for j := range ivs {
				a, b := ivs[i], ivs[j]
				overlap := a[0] < b[1] && b[0] < a[1]
				nested := (a[0] <= b[0] && b[1] <= a[1]) || (b[0] <= a[0] && a[1] <= b[1])
				if i != j && overlap && !nested {
					t.Errorf("thread %v: events %v and %v overlap without nesting", k, a, b)
				}
			}
		}
	}
}
