package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := n.CDF(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 0.5}
	for p := 1e-9; p < 1; p += 0.0173 {
		x := n.Quantile(p)
		back := n.CDF(x)
		if !almostEqual(back, p, 1e-10) {
			t.Fatalf("CDF(Quantile(%v)) = %v", p, back)
		}
	}
	// Deep tails.
	for _, p := range []float64{1e-12, 1e-8, 1e-4, 0.9999, 1 - 1e-8} {
		x := n.Quantile(p)
		if !almostEqual(n.CDF(x), p, math.Max(1e-14, p*1e-6)) {
			t.Errorf("tail round trip failed at p=%v", p)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	if !math.IsInf(n.Quantile(0), -1) || !math.IsInf(n.Quantile(1), 1) {
		t.Error("Quantile(0)/Quantile(1) should be ∓Inf")
	}
	if !math.IsNaN(n.Quantile(-0.1)) || !math.IsNaN(n.Quantile(1.1)) {
		t.Error("Quantile outside [0,1] should be NaN")
	}
	if n.Quantile(0.5) != 0 {
		t.Errorf("median = %v", n.Quantile(0.5))
	}
}

func TestNormalPDFIntegratesToOne(t *testing.T) {
	n := Normal{Mu: -1, Sigma: 2}
	const steps = 20000
	lo, hi := -1-10*2.0, -1+10*2.0
	h := (hi - lo) / steps
	var sum float64
	for i := 0; i <= steps; i++ {
		w := 1.0
		if i != 0 && i != steps {
			if i%2 == 1 {
				w = 4
			} else {
				w = 2
			}
		}
		sum += w * n.PDF(lo+float64(i)*h)
	}
	if got := sum * h / 3; !almostEqual(got, 1, 1e-10) {
		t.Errorf("∫pdf = %v", got)
	}
}

func TestNormalDegenerate(t *testing.T) {
	n := Normal{Mu: 5, Sigma: 0}
	if n.CDF(4.999) != 0 || n.CDF(5) != 1 {
		t.Error("degenerate CDF wrong")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	f := func(a, b float64) bool {
		pa, pb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if math.IsNaN(pa) || math.IsNaN(pb) || pa == 0 || pb == 0 {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return n.Quantile(pa) <= n.Quantile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
