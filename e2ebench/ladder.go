package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/importance"
	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/resultcache"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/sram"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/sweep"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/variation"
)

// sink keeps the results of timed pure calls live so the compiler
// cannot remove the calls.
var sink float64

// Kernels the studies evaluate: the ladder times each Monte-Carlo eval
// and each analytic (SSTA) eval once per input point.
var (
	mcKernels   = []string{"p99chipclock", "sramreadyield", "tailyield", "yield_is"}
	sstaKernels = []string{"p99chipclock", "tailyield", "chain3sigma", "gate3sigma"}
)

// perCall runs fn reps times and returns the median duration of one
// run; fn receives the repetition index.
func perCall(reps int, fn func(i int) error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// fresh offsets vdd by a microvolt per repetition: physically the same
// point, but a miss in every cache keyed on the exact (node, Vdd), so
// each repetition pays the cold build the ssta-study workload pays.
func fresh(vdd float64, i int) float64 { return vdd + float64(i+1)*1e-6 }

// ladderInputs picks the (node, Vdd) points the ladder evaluates: the
// node of the workload's first study and the first, middle and last
// voltage of its first metric sweep (the paper's 0.50–0.60 V band for a
// workload without one).
func ladderInputs(w workload, seed uint64) (tech.Node, []float64, error) {
	name, vdds := nodeOf(0), []float64{0.50, 0.55, 0.60}
	for _, req := range w.study(seed, 0).Requests {
		if req.Sweep == nil || req.Sweep.Metric == "" {
			continue
		}
		ns, err := req.Sweep.Normalized()
		if err != nil {
			return tech.Node{}, nil, err
		}
		var pts []float64
		grid := ns.Grid()
		for _, p := range grid {
			if p.Node == grid[0].Node {
				pts = append(pts, p.Vdd)
			}
		}
		name, vdds = grid[0].Node, []float64{pts[0], pts[len(pts)/2], pts[len(pts)-1]}
		break
	}
	node, err := tech.ByName(name)
	return node, vdds, err
}

// kernelOptions resolves a kernel's sampler knobs the way a sweep spec
// naming it would.
func kernelOptions(k sweep.Kernel, node string, vdd float64) (sweep.Options, error) {
	ns, err := sweep.Spec{Metric: k.ID, Nodes: []string{node}, Vdd: &sweep.VddAxis{From: vdd, To: vdd, Step: 1}}.Normalized()
	if err != nil {
		return sweep.Options{}, err
	}
	return sweep.Options{TailSigma: ns.TailSigma, IS: importance.Params{Shift: ns.ISShift, Mix: ns.ISMix}}, nil
}

// runLadder times calls into the public functions of each layer on the
// workload's inputs, in-process and at GOMAXPROCS=1 (montecarlo also at
// every CPU), reporting the median per call.
func runLadder(ctx context.Context, w workload, seed uint64) (map[string]float64, error) {
	nproc := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(nproc)
	runtime.GOMAXPROCS(1)
	node, vdds, err := ladderInputs(w, seed)
	if err != nil {
		return nil, err
	}
	vdd := vdds[len(vdds)/2]
	r := rng.NewSub(seed, -2)
	out := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	us := func(d time.Duration, n int) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
	ns := func(d time.Duration, n int) float64 { return float64(d) / float64(n) }
	measure := func(name string, reps int, scale func(time.Duration) float64, fn func(i int) error) {
		if err != nil {
			return
		}
		var d time.Duration
		if d, err = perCall(reps, fn); err != nil {
			err = fmt.Errorf("ladder %s: %w", name, err)
			return
		}
		out[name] = scale(d)
	}

	// sweep: one kernel evaluation per point, as a shard runs it.
	kernels := map[string]sweep.Kernel{}
	for _, k := range sweep.Kernels() {
		kernels[k.ID] = k
	}
	for _, id := range mcKernels {
		k := kernels[id]
		opt, oerr := kernelOptions(k, node.Name, vdd)
		if oerr != nil {
			return nil, oerr
		}
		measure("sweep.kernel_eval_ms."+id, len(vdds), ms, func(i int) error {
			v, _, err := k.Eval(ctx, node, vdds[i], k.DefaultSamples, r.Uint64(), opt)
			sink += v
			return err
		})
	}
	for _, id := range sstaKernels {
		k := kernels[id]
		opt, oerr := kernelOptions(k, node.Name, vdd)
		if oerr != nil {
			return nil, oerr
		}
		measure("sweep.kernel_eval_ms."+id+".ssta", 5, ms, func(i int) error {
			v, err := k.SSTA(node, fresh(vdds[i%len(vdds)], i), opt)
			sink += v
			return err
		})
	}

	// resultcache: content-addressing one request spec.
	specs := w.study(seed, 0).Requests
	const keyBatch = 200
	measure("resultcache.key_us", 5, func(d time.Duration) float64 { return us(d, keyBatch) }, func(int) error {
		for j := 0; j < keyBatch; j++ {
			req := specs[j%len(specs)]
			var v any = req.Job
			if req.Sweep != nil {
				v = req.Sweep
			}
			sink += float64(len(resultcache.Key(v)))
		}
		return nil
	})

	// experiments: each paper artifact at the paper-artifacts sample
	// counts, without the jobs layer.
	for _, id := range paperArtifacts {
		measure("experiments.run_ms."+id, 3, ms, func(int) error {
			cfg := experiments.Config{Seed: subSeed(r), CircuitSamples: paperSamples, ChipSamples: paperSamples, SearchSamples: paperSamples}
			_, err := experiments.RunCtx(ctx, id, cfg)
			return err
		})
	}

	// simd: the chip law, then chip draws from a prepared law.
	measure("simd.law_build_ms", 5, ms, func(i int) error {
		q, err := simd.New(node).ChipQuantile(fresh(vdd, i), 0.99)
		sink += q
		return err
	})
	dp := simd.New(node)
	if _, err := dp.ChipQuantile(vdd, 0.99); err != nil {
		return nil, err
	}
	const chips = 1000
	measure("simd.chip_draw_us", 5, func(d time.Duration) float64 { return us(d, chips) }, func(int) error {
		xs, err := dp.ChipDelaysCtx(ctx, r.Uint64(), chips, vdd, 0)
		if err == nil {
			sink += xs[0]
		}
		return err
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := dp.ChipDelaysCtx(ctx, r.Uint64(), chips, vdd, 0); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	out["simd.allocs_per_chip"] = float64(after.Mallocs-before.Mallocs) / chips

	// montecarlo: the parallel sampling engine over the chip draw, at
	// one CPU and at every CPU.
	const mcSamples = 2000
	draw := func(s *rng.Stream) float64 { return dp.SampleChipDelay(s, vdd, 0) }
	for _, procs := range []struct {
		name string
		n    int
	}{{"p1", 1}, {"pN", nproc}} {
		runtime.GOMAXPROCS(procs.n)
		measure("montecarlo.ns_per_sample."+procs.name, 5, func(d time.Duration) float64 { return ns(d, mcSamples) }, func(int) error {
			xs, err := montecarlo.SampleCtx(ctx, r.Uint64(), mcSamples, draw)
			if err == nil {
				sink += xs[0]
			}
			return err
		})
	}
	runtime.GOMAXPROCS(1)

	// importance: weighted draws through the chip quantile function.
	fn, err := dp.ChipQuantileFn(vdd)
	if err != nil {
		return nil, err
	}
	isOpt, err := kernelOptions(kernels["yield_is"], node.Name, vdd)
	if err != nil {
		return nil, err
	}
	const isSamples = 10000
	var ws []float64
	measure("importance.ns_per_sample", 5, func(d time.Duration) float64 { return ns(d, isSamples) }, func(int) error {
		var err error
		_, ws, err = importance.SampleCtx(ctx, isOpt.IS, r.Uint64(), isSamples, fn)
		return err
	})
	out["importance.ess_ratio"] = importance.Diagnose(ws).ESSFrac

	// ssta: building the analytic chip law, then one quantile of it.
	measure("ssta.law_build_ms", 5, ms, func(i int) error {
		l := ssta.NewLaw(node.Dev, node.Var, fresh(vdd, i), tech.ChainLength, simd.DefaultPathsPerLane, simd.DefaultLanes)
		sink += l.PathMoments().Mu
		return nil
	})
	law := ssta.NewLaw(node.Dev, node.Var, vdd, tech.ChainLength, simd.DefaultPathsPerLane, simd.DefaultLanes)
	const quantiles = 50
	measure("ssta.chip_quantile_us", 5, func(d time.Duration) float64 { return us(d, quantiles) }, func(int) error {
		for j := 0; j < quantiles; j++ {
			sink += law.ChipQuantile(0.9 + 0.09*float64(j)/quantiles)
		}
		return nil
	})

	// device: moment quadratures and the gate-delay model.
	measure("device.chain_moments_ms", 7, ms, func(i int) error {
		m, _ := device.ChainMoments(node.Dev, node.Var, fresh(vdd, i), tech.ChainLength)
		sink += m
		return nil
	})
	measure("device.gate_moments_ms", 7, ms, func(i int) error {
		m, _ := device.GateMoments(node.Dev, node.Var, fresh(vdd, i))
		sink += m
		return nil
	})
	const gates = 100000
	measure("device.gate_delay_ns", 5, func(d time.Duration) float64 { return ns(d, gates) }, func(int) error {
		for j := 0; j < gates; j++ {
			sink += node.Dev.Delay(vdd, node.Dev.Vth0+float64(j%64)*1e-4)
		}
		return nil
	})

	// variation: one freshly sampled 50-FO4 chain.
	smp := variation.NewSampler(node.Dev, node.Var)
	const chains = 2000
	measure("variation.chain_delay_us", 5, func(d time.Duration) float64 { return us(d, chains) }, func(int) error {
		for j := 0; j < chains; j++ {
			sink += smp.FreshChainDelay(r, vdd, tech.ChainLength)
		}
		return nil
	})

	// sram: the per-point die table, then whole-chip memory draws.
	measure("sram.table_build_ms", 5, ms, func(i int) error {
		sram.New(node).NewSampler(sram.OpRead, fresh(vdd, i))
		return nil
	})
	chip := sram.New(node).NewSampler(sram.OpRead, vdd)
	const memChips = 1000
	measure("sram.chip_sample_us", 5, func(d time.Duration) float64 { return us(d, memChips) }, func(int) error {
		for j := 0; j < memChips; j++ {
			sink += chip.Sample(r)
		}
		return nil
	})
	return out, err
}
