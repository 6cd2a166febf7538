package circuit

import (
	"math"
	"sync"
	"testing"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/variation"
)

func testSampler() *variation.Sampler {
	return variation.NewSampler(
		device.Params{Vth0: 0.35, N: 1.3, Kd: 1e-11},
		device.Variation{
			SigmaVthWID: 0.012, SigmaVthD2D: 0.004,
			SigmaMulWID: 0.03, SigmaMulD2D: 0.012,
		},
	)
}

func TestGraphDepthChain(t *testing.T) {
	g := NewGraph()
	id := g.AddGate(1)
	for i := 0; i < 9; i++ {
		id = g.AddGate(1, id)
	}
	if got := g.Depth(); got != 10 {
		t.Errorf("chain depth = %d, want 10", got)
	}
	gates := 0
	for _, c := range g.gates {
		gates += c
	}
	if len(g.gates) != 10 || gates != 10 {
		t.Errorf("nodes/gates = %d/%d", len(g.gates), gates)
	}
}

func TestGraphDepthDiamond(t *testing.T) {
	g := NewGraph()
	a := g.AddGate(1)
	b := g.AddGate(3, a) // long branch
	c := g.AddGate(1, a) // short branch
	g.AddGate(1, b, c)
	if got := g.Depth(); got != 5 { // 1 + 3 + 1
		t.Errorf("diamond depth = %d, want 5", got)
	}
}

func TestGraphWireNodes(t *testing.T) {
	g := NewGraph()
	a := g.AddGate(1)
	w := g.AddGate(0, a) // wire
	g.AddGate(1, w)
	if got := g.Depth(); got != 2 {
		t.Errorf("depth with wire = %d, want 2", got)
	}
}

func TestGraphPanicsOnBadFanin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dangling fan-in")
		}
	}()
	g := NewGraph()
	g.AddGate(1, 5)
}

func TestGraphDelayEqualsChainForSerialGraph(t *testing.T) {
	// A graph that is a pure chain must produce delays distributed like
	// Chain of the same length.
	s := testSampler()
	const n = 30
	g := NewGraph()
	id := g.AddGate(1)
	for i := 1; i < n; i++ {
		id = g.AddGate(1, id)
	}
	r1 := rng.New(42)
	r2 := rng.New(42)
	const samples = 20000
	gd := make([]float64, samples)
	cd := make([]float64, samples)
	for i := 0; i < samples; i++ {
		gd[i] = g.Delay(s, r1, 0.6, s.Die(r1))
		cd[i] = Chain{N: n}.Delay(s, r2, 0.6, s.Die(r2))
	}
	if d := stats.KSStatistic(gd, cd); d > stats.KSCritical(samples, samples, 0.01) {
		t.Errorf("serial graph and chain distributions differ: KS=%v", d)
	}
}

func TestKoggeStoneStructure(t *testing.T) {
	ks := KoggeStone(64)
	// Depth: 1 (pg) + 6 levels × 2 + 1 (sum) = 14 gate delays.
	if got := ks.Depth(); got != 14 {
		t.Errorf("KS-64 depth = %d, want 14", got)
	}
	ks8 := KoggeStone(8)
	if got := ks8.Depth(); got != 1+3*2+1 {
		t.Errorf("KS-8 depth = %d, want 8", got)
	}
}

func TestKoggeStonePanicsOnBadWidth(t *testing.T) {
	for _, w := range []int{0, 1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KoggeStone(%d) should panic", w)
				}
			}()
			KoggeStone(w)
		}()
	}
}

func TestRippleCarryStructure(t *testing.T) {
	rc := RippleCarry(64)
	// Depth: 1 + 64 carry cells × 2 + 1 final sum = 131... the sum XOR
	// hangs off the chain, adding 1 beyond the last carry: 1+128+1.
	if got := rc.Depth(); got != 130 {
		t.Errorf("ripple-64 depth = %d, want 130", got)
	}
}

// TestAdderVariationOrdering is the paper §3.1 validation: the
// Kogge-Stone adder (short depth, many parallel near-critical paths)
// shows delay variation comparable to a 50-gate chain and far below a
// single gate; the ripple adder (long single chain) averages harder.
func TestAdderVariationOrdering(t *testing.T) {
	s := testSampler()
	const vdd = 0.5
	const samples = 4000
	r := rng.New(7)
	ks := KoggeStone(64)
	rc := RippleCarry(64)

	ksD := make([]float64, samples)
	rcD := make([]float64, samples)
	gateD := make([]float64, samples)
	for i := 0; i < samples; i++ {
		ksD[i] = ks.Delay(s, r, vdd, s.Die(r))
		rcD[i] = rc.Delay(s, r, vdd, s.Die(r))
		gateD[i] = s.FreshGateDelay(r, vdd)
	}
	ks3s := stats.ThreeSigmaOverMu(ksD)
	rc3s := stats.ThreeSigmaOverMu(rcD)
	gate3s := stats.ThreeSigmaOverMu(gateD)
	if ks3s >= gate3s {
		t.Errorf("KS 3σ/μ %v should be below single gate %v", ks3s, gate3s)
	}
	if rc3s >= ks3s {
		t.Errorf("ripple 3σ/μ %v should be below KS %v (deeper averaging)", rc3s, ks3s)
	}
}

// TestMaxOfPathsShiftsMean: parallel near-critical paths shift the mean
// delay above the per-path mean — the same max-statistics that drive the
// SIMD architecture study.
func TestMaxOfPathsShiftsMean(t *testing.T) {
	s := testSampler()
	const vdd = 0.5
	r := rng.New(8)
	// Graph: 64 parallel 10-gate chains joined at a sink wire.
	g := NewGraph()
	ends := make([]int, 0, 64)
	for p := 0; p < 64; p++ {
		id := g.AddGate(1)
		for k := 1; k < 10; k++ {
			id = g.AddGate(1, id)
		}
		ends = append(ends, id)
	}
	g.AddGate(0, ends...)

	graph := make([]float64, 3000)
	chain := make([]float64, len(graph))
	for i := range graph {
		die := s.Die(r)
		graph[i] = g.Delay(s, r, vdd, die)
		chain[i] = s.ChainDelay(r, vdd, 10, die)
	}
	if graphMean, chainMean := stats.Mean(graph), stats.Mean(chain); graphMean <= chainMean*1.01 {
		t.Errorf("max over 64 paths (%v) should exceed single path mean (%v)",
			graphMean, chainMean)
	}
}

func TestGraphDelayPositive(t *testing.T) {
	s := testSampler()
	r := rng.New(9)
	ks := KoggeStone(16)
	for i := 0; i < 500; i++ {
		if d := ks.Delay(s, r, 0.45, s.Die(r)); d <= 0 || math.IsNaN(d) {
			t.Fatalf("bad delay %v", d)
		}
	}
}

func TestArrayMultiplierStructure(t *testing.T) {
	m := ArrayMultiplier(16)
	// Depth: carry-save rows contribute 2 gates per row after the AND
	// plane; the final ripple adds 2 per bit: 1 + 2·15 + 2·16 = 63.
	if got := m.Depth(); got != 63 {
		t.Errorf("16×16 multiplier depth = %d, want 63", got)
	}
	if len(m.gates) < 16*16 {
		t.Errorf("multiplier too small: %d nodes", len(m.gates))
	}
}

func TestArrayMultiplierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width 1 accepted")
		}
	}()
	ArrayMultiplier(1)
}

// TestMultiplierVariationBetweenBounds: the multiplier's deep, highly
// parallel structure averages variation at least as well as a chain of
// its own depth would, and far better than a single gate.
func TestMultiplierVariationBetweenBounds(t *testing.T) {
	s := testSampler()
	const vdd = 0.5
	const samples = 1500
	r := rng.New(21)
	m := ArrayMultiplier(8)
	depth := m.Depth()

	mulD := make([]float64, samples)
	chainD := make([]float64, samples)
	gateD := make([]float64, samples)
	for i := 0; i < samples; i++ {
		mulD[i] = m.Delay(s, r, vdd, s.Die(r))
		chainD[i] = s.ChainDelay(r, vdd, depth, s.Die(r))
		gateD[i] = s.FreshGateDelay(r, vdd)
	}
	mul3s := stats.ThreeSigmaOverMu(mulD)
	chain3s := stats.ThreeSigmaOverMu(chainD)
	gate3s := stats.ThreeSigmaOverMu(gateD)
	if mul3s >= gate3s {
		t.Errorf("multiplier 3σ/μ %v not below single gate %v", mul3s, gate3s)
	}
	// Max over many parallel near-critical paths tightens the spread
	// below the single-chain value.
	if mul3s >= chain3s*1.1 {
		t.Errorf("multiplier 3σ/μ %v should not exceed same-depth chain %v", mul3s, chain3s)
	}
	// And the mean exceeds the chain's (max statistics shift right).
	if stats.Mean(mulD) <= stats.Mean(chainD) {
		t.Error("multiplier mean should exceed same-depth chain mean")
	}
}

// TestGraphConcurrentEvaluation shares one freshly built graph between
// four Monte-Carlo workers, as the experiments' sampling loops do. Each
// worker's draws must match a serial evaluation with the same stream,
// and under -race no evaluation may write the shared graph.
func TestGraphConcurrentEvaluation(t *testing.T) {
	s := testSampler()
	g := RippleCarry(64)
	const workers, samples = 4, 50
	serial := make([][]float64, workers)
	for w := range serial {
		r := rng.NewSub(11, w)
		for i := 0; i < samples; i++ {
			serial[w] = append(serial[w], RippleCarry(64).Delay(s, r, 0.5, s.Die(r)))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewSub(11, w)
			for i := 0; i < samples; i++ {
				if d := g.Delay(s, r, 0.5, s.Die(r)); d != serial[w][i] {
					t.Errorf("worker %d sample %d: delay %v, serial %v", w, i, d, serial[w][i])
					return
				}
			}
			if g.Depth() != RippleCarry(64).Depth() {
				t.Errorf("worker %d: depth changed under concurrent use", w)
			}
		}(w)
	}
	wg.Wait()
}
