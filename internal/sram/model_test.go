package sram

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/montecarlo"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// mcSample runs montecarlo.SampleCtx under context.Background(), which
// is never cancelled, and fails the test on an error.
func mcSample(t testing.TB, seed uint64, n int, fn func(r *rng.Stream) float64) []float64 {
	t.Helper()
	xs, err := montecarlo.SampleCtx(context.Background(), seed, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	return xs
}

func TestModelBudgets(t *testing.T) {
	m := New(tech.N45)
	const vdd = 0.55
	if got, want := m.Budget(OpRead, vdd), DefaultReadMargin*m.Cell.NominalDelay(OpRead, vdd); got != want {
		t.Errorf("read budget %v, want %v", got, want)
	}
	if got, want := m.Budget(OpWrite, vdd), DefaultWriteMargin*m.Cell.NominalDelay(OpWrite, vdd); got != want {
		t.Errorf("write budget %v, want %v", got, want)
	}
}

// TestYieldMonotoneVdd: the chip-level analytic yield inherits the
// cell-level monotonicity through the composition.
func TestYieldMonotoneVdd(t *testing.T) {
	m := New(tech.N32)
	prev := -1.0
	for _, vdd := range []float64{0.50, 0.55, 0.60, 0.70} {
		y := m.Yield(OpRead, vdd)
		if y < 0 || y > 1 || math.IsNaN(y) {
			t.Fatalf("yield %v at %.2f V", y, vdd)
		}
		if y < prev-1e-12 {
			t.Errorf("yield not increasing in Vdd: %v at %.2f V after %v", y, vdd, prev)
		}
		prev = y
	}
}

// TestYieldMonotoneSpares: more spare rows can only help, saturating at
// the unspared VRF/XRAM ceiling.
func TestYieldMonotoneSpares(t *testing.T) {
	const vdd = 0.575
	prev := -1.0
	for _, s := range []int{0, 2, 8, 16} {
		y := New(tech.N32).WithSpareRows(s).Yield(OpRead, vdd)
		if y < prev-1e-12 {
			t.Errorf("yield not increasing in spares: %v at s=%d after %v", y, s, prev)
		}
		prev = y
	}
	// The ceiling: unspared structures cap the yield no matter the
	// bank repair budget.
	ceiling := 1.0
	m := New(tech.N32)
	budget := m.Budget(OpRead, vdd)
	ceiling = chipRule.Expect(m.Cell.SigmaD2D, func(die float64) float64 {
		p := m.Cell.FailProb(OpRead, vdd, budget, die)
		return m.Map[4].Yield(p) * m.Map[5].Yield(p) // vrf × xram only
	})
	if y := New(tech.N32).WithSpareRows(64).Yield(OpRead, vdd); y > ceiling+1e-9 {
		t.Errorf("yield %v above unspared-structure ceiling %v", y, ceiling)
	}
}

func TestBinomialDrawInversion(t *testing.T) {
	// Direct inversion check at small n: draw k iff u lands inside
	// (CDF(k-1), CDF(k)].
	n, p := 8, 0.3
	for _, k := range []int{0, 1, 4, 8} {
		lo := 0.0
		if k > 0 {
			lo = stats.BinomialCDF(n, p, k-1)
		}
		hi := stats.BinomialCDF(n, p, k)
		mid := (lo + hi) / 2
		if got := binomialDraw(mid, n, p); got != k {
			t.Errorf("binomialDraw(%v, %d, %v) = %d, want %d", mid, n, p, got, k)
		}
	}
	// Edges and the complement branch.
	if binomialDraw(0.5, 0, 0.3) != 0 || binomialDraw(0.5, 8, 0) != 0 || binomialDraw(0.5, 8, 1) != 8 {
		t.Error("degenerate draws wrong")
	}
	// p > 0.5 takes the complement path and must still match direct
	// inversion computed on the complement law.
	pHigh := 0.995
	for _, u := range []float64{0.01, 0.3, 0.6, 0.99} {
		got := binomialDraw(u, 256, pHigh)
		if got < 0 || got > 256 {
			t.Fatalf("draw %d out of range", got)
		}
		// Verify via the inversion property against the CDF.
		if got > 0 && stats.BinomialCDF(256, pHigh, got-1) >= u {
			t.Errorf("u=%v: drew %d but CDF(%d) >= u", u, got, got-1)
		}
		if stats.BinomialCDF(256, pHigh, got) < u && got < 256 {
			t.Errorf("u=%v: drew %d but CDF(%d) < u", u, got, got)
		}
	}
	// Monotone in u.
	prev := -1
	for _, u := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		k := binomialDraw(u, 64, 0.2)
		if k < prev {
			t.Errorf("draw not monotone in u at %v", u)
		}
		prev = k
	}
}

// TestSamplerDeterminism: same seed, same chips — the sampler draws
// only from the caller's stream.
func TestSamplerDeterminism(t *testing.T) {
	smp := New(tech.N45).NewSampler(OpRead, 0.52)
	a := mcSample(t, 77, 500, smp.Sample)
	b := mcSample(t, 77, 500, smp.Sample)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i] != 0 && a[i] != 1 {
			t.Fatalf("sample %d = %v, want 0/1 indicator", i, a[i])
		}
	}
	// A fresh sampler for the same point draws identically: all state
	// is in the table, none in the stream position.
	smp2 := New(tech.N45).NewSampler(OpRead, 0.52)
	c := mcSample(t, 77, 500, smp2.Sample)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("fresh sampler diverges at %d", i)
		}
	}
}

func TestSamplerDegenerateD2D(t *testing.T) {
	m := New(tech.N90)
	m.Cell.SigmaD2D = 0
	smp := m.NewSampler(OpRead, 0.55)
	if len(smp.table) != 1 {
		t.Fatalf("degenerate sampler table has %d entries", len(smp.table))
	}
	r := rng.New(1)
	v := smp.Sample(r)
	if v != 0 && v != 1 {
		t.Fatalf("sample %v", v)
	}
}

// TestSamplerTableInterp: the interpolated conditional probability
// matches the exact quadrature to well under Monte-Carlo resolution
// across the die range, and clamps beyond it.
func TestSamplerTableInterp(t *testing.T) {
	m := New(tech.N45)
	const vdd = 0.52
	smp := m.NewSampler(OpRead, vdd)
	budget := m.Budget(OpRead, vdd)
	for _, z := range []float64{-6.5, -2.2, -0.3, 0, 1.1, 3.7, 7.9} {
		die := z * m.Cell.SigmaD2D
		got := smp.cellProb(die)
		want := m.Cell.FailProb(OpRead, vdd, budget, die)
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("die %+.1fσ: interp %v vs exact %v", z, got, want)
		}
	}
	if smp.cellProb(-1) != smp.table[0] || smp.cellProb(1) != smp.table[len(smp.table)-1] {
		t.Error("out-of-range die shifts do not clamp to table edges")
	}
}

// TestYieldPctCtxIsTheSampleMean: the MC memory yield is 100 times the
// mean of the chips' repair indicators, bit for bit, and a cancelled
// ctx returns its error.
func TestYieldPctCtxIsTheSampleMean(t *testing.T) {
	for _, op := range []Op{OpRead, OpWrite} {
		smp := New(tech.N32).NewSampler(op, 0.55)
		got, err := smp.YieldPctCtx(context.Background(), 31, 700)
		if err != nil {
			t.Fatal(err)
		}
		if want := 100 * stats.Mean(mcSample(t, 31, 700, smp.Sample)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: YieldPctCtx = %v, sample mean %v", op, got, want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(tech.N32).NewSampler(OpRead, 0.55).YieldPctCtx(ctx, 31, 700); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled YieldPctCtx: err = %v, want context.Canceled", err)
	}
}

// TestAnalyticMatchesMCAcrossGrid is the acceptance-criteria property:
// at every default tech × Vdd grid point, for both accesses, the
// analytic yield sits inside the Monte-Carlo 99% confidence interval.
// The CI uses the normal approximation away from the edges and the
// exact "rule of three"-style bound 4.61/n when the MC estimate
// degenerates to 0 or 1 (P(zero hits) < 1% ⇒ p < −ln(0.01)/n).
func TestAnalyticMatchesMCAcrossGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid quadrature + sampling in -short mode")
	}
	const n = 4000
	for _, node := range tech.Nodes() {
		for _, vdd := range []float64{0.50, 0.55, 0.60} {
			for _, op := range []Op{OpRead, OpWrite} {
				m := New(node)
				analytic := m.Yield(op, vdd)
				smp := m.NewSampler(op, vdd)
				xs, err := montecarlo.SampleCtx(context.Background(), 0xABCD, n, smp.Sample)
				if err != nil {
					t.Fatal(err)
				}
				mc := stats.Mean(xs)
				se := math.Sqrt(mc * (1 - mc) / n)
				tol := math.Max(2.576*se, 4.61/n)
				if math.Abs(analytic-mc) > tol {
					t.Errorf("%s %.2f V %v: analytic %.5f vs MC %.5f (tol %.5f)",
						node.Name, vdd, op, analytic, mc, tol)
				}
			}
		}
	}
}
