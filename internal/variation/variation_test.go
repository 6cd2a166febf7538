package variation

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func testSampler() *Sampler {
	return NewSampler(
		device.Params{Vth0: 0.35, N: 1.3, Kd: 1e-11},
		device.Variation{
			SigmaVthWID: 0.012, SigmaVthD2D: 0.004,
			SigmaMulWID: 0.03, SigmaMulD2D: 0.012,
		},
	)
}

func TestGateDelayMatchesQuadratureMoments(t *testing.T) {
	s := testSampler()
	r := rng.New(100)
	const vdd = 0.6
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = s.FreshGateDelay(r, vdd)
	}
	mean, sd := stats.Mean(xs), stats.StdDev(xs)
	qm, qv := device.GateMoments(s.Dev, s.Var, vdd)
	if math.Abs(mean-qm)/qm > 0.01 {
		t.Errorf("MC mean %v vs quadrature %v", mean, qm)
	}
	if math.Abs(sd-math.Sqrt(qv))/math.Sqrt(qv) > 0.03 {
		t.Errorf("MC sd %v vs quadrature %v", sd, math.Sqrt(qv))
	}
}

func TestChainDelayMatchesQuadratureMoments(t *testing.T) {
	s := testSampler()
	r := rng.New(200)
	const vdd = 0.5
	const n = 30
	xs := make([]float64, 40000)
	for i := range xs {
		xs[i] = s.FreshChainDelay(r, vdd, n)
	}
	mean, sd := stats.Mean(xs), stats.StdDev(xs)
	qm, qv := device.ChainMoments(s.Dev, s.Var, vdd, n)
	if math.Abs(mean-qm)/qm > 0.01 {
		t.Errorf("MC mean %v vs quadrature %v", mean, qm)
	}
	if math.Abs(sd-math.Sqrt(qv))/math.Sqrt(qv) > 0.05 {
		t.Errorf("MC sd %v vs quadrature %v", sd, math.Sqrt(qv))
	}
}

func TestDieCorrelationWithinDie(t *testing.T) {
	s := testSampler()
	r := rng.New(300)
	// Two gates on the same die must be positively correlated; on
	// different dies, uncorrelated.
	const n = 50000
	sameProd := make([]float64, n)
	crossProd := make([]float64, n)
	for i := 0; i < n; i++ {
		die := s.Die(r)
		g1 := s.GateDelay(r, 0.5, die)
		g2 := s.GateDelay(r, 0.5, die)
		die3 := s.Die(r)
		g3 := s.GateDelay(r, 0.5, die3)
		sameProd[i] = g1 * g2
		crossProd[i] = g1 * g3
	}
	qm, _ := device.GateMoments(s.Dev, s.Var, 0.5)
	same := stats.Mean(sameProd) - qm*qm
	cross := stats.Mean(crossProd) - qm*qm
	if same <= 0 {
		t.Errorf("same-die covariance %v should be positive", same)
	}
	if math.Abs(cross) > same/3 {
		t.Errorf("cross-die covariance %v should be near zero (same-die %v)", cross, same)
	}
}

func TestChainIsSumOfGates(t *testing.T) {
	s := testSampler()
	// With zero variation, chain delay must equal n × nominal delay.
	s.Var = device.Variation{}
	r := rng.New(400)
	got := s.FreshChainDelay(r, 0.7, 25)
	want := 25 * s.Dev.NominalDelay(0.7)
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("chain = %v, want %v", got, want)
	}
}

func TestDelaysArePositive(t *testing.T) {
	s := testSampler()
	r := rng.New(500)
	for i := 0; i < 10000; i++ {
		if d := s.FreshGateDelay(r, 0.45); d <= 0 {
			t.Fatalf("non-positive delay %v", d)
		}
	}
}

func TestDieFieldsDistribution(t *testing.T) {
	s := testSampler()
	r := rng.New(600)
	dvth := make([]float64, 100000)
	logMul := make([]float64, len(dvth))
	for i := range dvth {
		d := s.Die(r)
		dvth[i] = d.DVth
		logMul[i] = math.Log(d.Mul)
	}
	if m := stats.Mean(dvth); math.Abs(m) > 1e-4 {
		t.Errorf("D2D Vth mean %v, want 0", m)
	}
	if sd := stats.StdDev(dvth); math.Abs(sd-s.Var.SigmaVthD2D)/s.Var.SigmaVthD2D > 0.02 {
		t.Errorf("D2D Vth sd %v, want %v", sd, s.Var.SigmaVthD2D)
	}
	if sd := stats.StdDev(logMul); math.Abs(sd-s.Var.SigmaMulD2D)/s.Var.SigmaMulD2D > 0.02 {
		t.Errorf("D2D mul log-sd %v, want %v", sd, s.Var.SigmaMulD2D)
	}
}

// TestChainThreeSigmaCtx: the estimator is stats.ThreeSigmaOverMu of
// the fresh-die chains drawn from its seed, bit for bit; a chain of one
// gate is the fresh-gate sample; the nested read of Figure 11's lengths
// gives, on every calibrated node and two seeds, each length's bits
// from one call per length and from that oracle; lengths that do not
// ascend panic; and a cancelled ctx returns its error.
func TestChainThreeSigmaCtx(t *testing.T) {
	ctx := context.Background()
	const n, vdd = 300, 0.55
	want := func(seed uint64, fn func(r *rng.Stream) float64) float64 {
		t.Helper()
		xs, err := montecarlo.SampleCtx(ctx, seed, n, fn)
		if err != nil {
			t.Fatal(err)
		}
		return stats.ThreeSigmaOverMu(xs)
	}
	got := func(s *Sampler, seed uint64, lengths ...int) []float64 {
		t.Helper()
		v, err := s.ChainThreeSigmaCtx(ctx, seed, n, vdd, lengths...)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != len(lengths) {
			t.Fatalf("%d values for %d lengths", len(v), len(lengths))
		}
		return v
	}
	s := testSampler()
	if g, w := got(s, 41, 1)[0], want(41, func(r *rng.Stream) float64 { return s.FreshGateDelay(r, vdd) }); math.Float64bits(g) != math.Float64bits(w) {
		t.Errorf("1 gate: %v, want the fresh-gate sample's %v", g, w)
	}

	lengths := []int{1, 2, 5, 10, 20, 50, 100, 200} // Figure 11's
	for _, node := range tech.Nodes() {
		s := NewSampler(node.Dev, node.Var)
		for _, seed := range []uint64{41, 1_000_055} {
			nested := got(s, seed, lengths...)
			for j, gates := range lengths {
				one := got(s, seed, gates)[0]
				oracle := want(seed, func(r *rng.Stream) float64 { return s.FreshChainDelay(r, vdd, gates) })
				if math.Float64bits(nested[j]) != math.Float64bits(oracle) || math.Float64bits(one) != math.Float64bits(oracle) {
					t.Errorf("%s seed %d, %d gates: nested %v, one length %v, want %v", node.Name, seed, gates, nested[j], one, oracle)
				}
			}
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("lengths 5, 2: no panic")
			}
		}()
		s.ChainThreeSigmaCtx(ctx, 41, n, vdd, 5, 2)
	}()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.ChainThreeSigmaCtx(cancelled, 41, n, vdd, lengths...); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: err = %v, want context.Canceled", err)
	}
}
