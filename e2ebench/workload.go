package main

import (
	"encoding/json"
	"fmt"

	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/sweep"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// request is one submission of a study: a sweep spec for POST
// /v1/sweeps or an experiment job for POST /v1/jobs.
type request struct {
	Sweep *sweep.Spec
	Job   *jobSpec
}

// jobSpec is the POST /v1/jobs body the benchmark sends.
type jobSpec struct {
	Experiment string             `json:"experiment"`
	Config     experiments.Config `json:"config"`
}

// path is the collection the request is POSTed to; GET path/{id}
// polls it.
func (r request) path() string {
	if r.Sweep != nil {
		return "/v1/sweeps"
	}
	return "/v1/jobs"
}

// body is the request's JSON wire form.
func (r request) body() []byte {
	var v any = r.Job
	if r.Sweep != nil {
		v = r.Sweep
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("e2ebench: encoding a generated request: %v", err))
	}
	return b
}

// name labels the request in digests and traces: the sweep kernel (with
// its sampler and mode knobs) or the experiment id.
func (r request) name() string {
	if r.Job != nil {
		return "job/" + r.Job.Experiment
	}
	s := r.Sweep
	name := "sweep/" + s.Metric + s.Experiment
	if s.Sampler != "" {
		name += "." + s.Sampler
	}
	if s.Mode != "" {
		name += "." + s.Mode
	}
	return name
}

// points is the number of grid points the request evaluates: a job is
// one point, a sweep its expanded grid.
func (r request) points() int {
	if r.Sweep == nil {
		return 1
	}
	ns, err := r.Sweep.Normalized()
	if err != nil {
		panic(fmt.Sprintf("e2ebench: generated an invalid sweep %s: %v", r.body(), err))
	}
	return len(ns.Grid())
}

// study is the unit of load and of latency: a fixed set of requests
// that together answer one design question.
type study struct {
	Index    int
	Requests []request
}

// points is the study's total grid-point count.
func (s study) points() int {
	n := 0
	for _, r := range s.Requests {
		n += r.points()
	}
	return n
}

// workload is one traffic mix: a deterministic study generator. Study i
// of a run draws every input from rng.NewSub(seed, i), the repository's
// seed lattice; index warmupIndex is the untimed warm-up study, which
// no timed study reuses.
type workload struct {
	Name string
	Why  string
	// RSSAt is the completed-study count at which a plain run reads
	// rss_peak_mb: about half of what a 20 s window completes, so every
	// run reaches it and the daemon's growth per study does not turn
	// throughput noise into memory noise.
	RSSAt int
	study func(seed uint64, i int) study
}

const warmupIndex = -1

// workloads is the benchmark's traffic catalogue, in run order.
var workloads = []workload{
	{
		Name:  "mc-study",
		Why:   "Monte-Carlo sweeps with fresh seeds: sampling layers (simd, sram, montecarlo, importance) dominate, no result-cache hits",
		RSSAt: 25,
		study: func(seed uint64, i int) study {
			r := rng.NewSub(seed, i)
			node := nodeOf(i)
			mk := func(metric, sampler string) request {
				return sweepOf(sweep.Spec{Metric: metric, Sampler: sampler, Nodes: []string{node},
					Vdd: &sweep.VddAxis{From: 0.50, To: 0.60, Step: 0.05}, Seed: subSeed(r)})
			}
			return study{Index: i, Requests: []request{
				mk("p99chipclock", ""), mk("sramreadyield", ""), mk("tailyield", ""), mk("tailyield", "is"),
			}}
		},
	},
	{
		Name:  "ssta-study",
		Why:   "analytic mode-ssta sweeps on never-repeated Vdd grids: law builds and shard dispatch dominate, no cache can hit",
		RSSAt: 25,
		study: func(seed uint64, i int) study {
			r := rng.NewSub(seed, i)
			node := nodeOf(i)
			delta := r.Float64() * sstaStep
			mk := func(metric string) request {
				return sweepOf(sweep.Spec{Metric: metric, Mode: sweep.ModeSSTA, Nodes: []string{node},
					Vdd: &sweep.VddAxis{From: 0.45 + delta, To: 0.70 + delta, Step: sstaStep}, Seed: subSeed(r)})
			}
			return study{Index: i, Requests: []request{
				mk("p99chipclock"), mk("tailyield"), mk("chain3sigma"), mk("gate3sigma"),
			}}
		},
	},
	{
		Name:  "cached-replay",
		Why:   "one 163-point pool resubmitted every study: every shard is a cache hit, so only the HTTP, dispatch, merge and ledger path runs",
		RSSAt: 2500,
		study: func(seed uint64, i int) study {
			return study{Index: i, Requests: cachedPool(seed)}
		},
	},
	{
		Name:  "paper-artifacts",
		Why:   "paper figures as jobs with fresh seeds: the jobs API and the gate-level variation and device samplers the sweep kernels bypass",
		RSSAt: 25,
		study: func(seed uint64, i int) study {
			r := rng.NewSub(seed, i)
			reqs := make([]request, 0, len(paperArtifacts))
			for _, id := range paperArtifacts {
				reqs = append(reqs, request{Job: &jobSpec{Experiment: id, Config: experiments.Config{
					Seed: subSeed(r), CircuitSamples: paperSamples, ChipSamples: paperSamples, SearchSamples: paperSamples,
				}}})
			}
			return study{Index: i, Requests: reqs}
		},
	},
}

// sstaStep is the Vdd step of the ssta-study grids and the range of the
// per-study offset δ, so consecutive studies never share a voltage.
const sstaStep = 0.0125

// paperArtifacts are the experiments the paper-artifacts workload runs
// as jobs, at paperSamples circuit, chip and search samples each. The
// Kogge-Stone validation (ks) stays out: its adder graphs build their
// topological order lazily inside concurrent Monte-Carlo workers, a
// data race that can corrupt or crash a run, so its served result is
// not reproducible.
var paperArtifacts = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig11"}

const paperSamples = 250

// cachedPool is the cached-replay workload's fixed request pool. Its
// 163 points fit the daemon's default 256-entry result cache, so after
// the set-up prefill every shard of every study is a cache hit.
func cachedPool(seed uint64) []request {
	r := rng.NewSub(seed, 0)
	all := nodeNames()
	paper := sweep.VddAxis{From: 0.50, To: 0.60, Step: 0.05}
	fine := sweep.VddAxis{From: 0.45, To: 0.70, Step: sstaStep}
	mk := func(s sweep.Spec) request {
		s.Seed = subSeed(r)
		return sweepOf(s)
	}
	return []request{
		mk(sweep.Spec{Metric: "p99chipclock", Nodes: all, Vdd: &paper}),
		mk(sweep.Spec{Metric: "tailyield", Nodes: all, Vdd: &paper}),
		mk(sweep.Spec{Metric: "sramreadyield", Nodes: all, Vdd: &paper}),
		mk(sweep.Spec{Metric: "chain3sigma", Mode: sweep.ModeSSTA, Nodes: all, Vdd: &fine}),
		mk(sweep.Spec{Metric: "p99chipclock", Mode: sweep.ModeAuto, AutoThreshold: 60,
			Nodes: []string{"45nm GP", "22nm PTM HP"}, Vdd: &fine}),
		mk(sweep.Spec{Experiment: "fig2", Samples: []int{paperSamples}}),
	}
}

// sweepOf wraps a spec, giving it private copies of its slices and axis
// so normalization of one request never aliases another.
func sweepOf(s sweep.Spec) request {
	s.Nodes = append([]string(nil), s.Nodes...)
	s.Samples = append([]int(nil), s.Samples...)
	if s.Vdd != nil {
		v := *s.Vdd
		s.Vdd = &v
	}
	return request{Sweep: &s}
}

// nodeNames lists the four calibrated technology nodes, largest first.
func nodeNames() []string {
	var out []string
	for _, n := range tech.Nodes() {
		out = append(out, n.Name)
	}
	return out
}

// nodeOf rotates study i through the four nodes, so every run covers
// them evenly.
func nodeOf(i int) string {
	names := nodeNames()
	return names[(i%len(names)+len(names))%len(names)]
}

// subSeed draws the next request seed from a study stream. Zero means
// "paper default" to the daemon, so it is mapped away.
func subSeed(r *rng.Stream) uint64 {
	if s := r.Uint64(); s != 0 {
		return s
	}
	return 1
}

// lookupWorkload resolves a workload name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
