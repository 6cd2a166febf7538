package ssta

import (
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/stats"
)

// clarkCases is a deterministic spread of operand pairs covering
// separated, overlapping, negative and tiny-scale moments at several
// correlations.
var clarkCases = []struct {
	x, y Gaussian
	rho  float64
}{
	{Gaussian{0, 1}, Gaussian{0, 1}, 0},
	{Gaussian{0, 1}, Gaussian{1, 2}, 0},
	{Gaussian{5, 0.5}, Gaussian{4, 1.5}, 0.3},
	{Gaussian{-2, 1}, Gaussian{2, 1}, -0.5},
	{Gaussian{-3, 0.2}, Gaussian{-3.1, 0.25}, 0.9},
	{Gaussian{1e-9, 2e-10}, Gaussian{1.1e-9, 1e-10}, 0.5},
	{Gaussian{10, 3}, Gaussian{0, 0.1}, -0.99},
	{Gaussian{7, 0}, Gaussian{5, 2}, 0},
}

func TestClarkSymmetry(t *testing.T) {
	for _, c := range clarkCases {
		a, b := Clark(c.x, c.y, c.rho), Clark(c.y, c.x, c.rho)
		if a != b {
			t.Errorf("Clark(%+v, %+v, %v) = %+v but swapped = %+v", c.x, c.y, c.rho, a, b)
		}
	}
}

func TestClarkMonotoneInMu(t *testing.T) {
	for _, c := range clarkCases {
		prev := math.Inf(-1)
		for shift := -2.0; shift <= 2.0; shift += 0.25 {
			x := Gaussian{Mu: c.x.Mu + shift, Sigma: c.x.Sigma}
			mu := Clark(x, c.y, c.rho).Mu
			if mu < prev {
				t.Fatalf("E[max] decreased when shifting x.Mu to %v in case %+v", x.Mu, c)
			}
			prev = mu
		}
	}
}

func TestClarkDominatesOperands(t *testing.T) {
	// E[max(X, Y)] ≥ max(E[X], E[Y]), with equality only in degenerate
	// cases; the variance can never go negative.
	for _, c := range clarkCases {
		g := Clark(c.x, c.y, c.rho)
		if floor := math.Max(c.x.Mu, c.y.Mu); g.Mu < floor-1e-12*math.Abs(floor) {
			t.Errorf("E[max] %v below operand mean floor %v in case %+v", g.Mu, floor, c)
		}
		if g.Sigma < 0 || math.IsNaN(g.Sigma) {
			t.Errorf("invalid sigma %v in case %+v", g.Sigma, c)
		}
	}
}

func TestClarkDegenerateTheta(t *testing.T) {
	// θ = 0 arises for perfectly correlated equal-variance operands and
	// for a pair of point masses; the max is then the larger-mean
	// operand exactly.
	x, y := Gaussian{3, 1.5}, Gaussian{4, 1.5}
	if got := Clark(x, y, 1); got != y {
		t.Errorf("ρ=1 equal-σ max = %+v, want %+v", got, y)
	}
	if got := Clark(y, x, 1); got != y {
		t.Errorf("ρ=1 equal-σ max (swapped) = %+v, want %+v", got, y)
	}
	a, b := Gaussian{2, 0}, Gaussian{-1, 0}
	if got := Clark(a, b, 0); got != a {
		t.Errorf("point-mass max = %+v, want %+v", got, a)
	}
	// Equal means too: either operand is a correct answer; pin the
	// documented tie-break (first operand).
	c := Gaussian{5, 1}
	if got := Clark(c, c, 1); got != c {
		t.Errorf("identical correlated max = %+v, want %+v", got, c)
	}
}

// exactMax2Moments integrates the exact first two moments of
// max(X, Y) for jointly Gaussian operands by conditioning on X = x:
// max(x, Y) has closed-form moments for Gaussian Y, leaving a single
// smooth quadrature over x. It shares no code with Clark (which uses
// the closed-form identities directly), so agreement is a genuine
// cross-check of Clark's algebra.
func exactMax2Moments(x, y Gaussian, rho float64) (m1, m2 float64) {
	std := stats.Normal{Mu: 0, Sigma: 1}
	const n = 4000 // composite Simpson over ±8σ of X
	lo, hi := -8.0, 8.0
	h := (hi - lo) / n
	var w1, w2, wz float64
	for i := 0; i <= n; i++ {
		z := lo + float64(i)*h
		c := 2.0
		switch {
		case i == 0 || i == n:
			c = 1
		case i%2 == 1:
			c = 4
		}
		wg := c * std.PDF(z)
		xv := x.Mu + x.Sigma*z
		// Y | X = x is Gaussian with these conditional moments.
		cm := y.Mu + rho*y.Sigma*z
		cs := y.Sigma * math.Sqrt(1-rho*rho)
		var e1, e2 float64
		if cs == 0 {
			e1 = math.Max(xv, cm)
			e2 = e1 * e1
		} else {
			a := (xv - cm) / cs
			cdf, pdf := std.CDF(a), std.PDF(a)
			e1 = xv*cdf + cm*(1-cdf) + cs*pdf
			e2 = xv*xv*cdf + (cm*cm+cs*cs)*(1-cdf) + (xv+cm)*cs*pdf
		}
		w1 += wg * e1
		w2 += wg * e2
		wz += wg
	}
	return w1 / wz, w2 / wz
}

// TestClarkAgainstExactQuadrature asserts Clark's output moments match
// the exact two-operand max moments by independent quadrature to
// near-machine precision — Clark's formulas are exact for two
// operands; only the re-Gaussianization (not tested here) is an
// approximation.
func TestClarkAgainstExactQuadrature(t *testing.T) {
	for _, c := range clarkCases {
		if c.x.Sigma == 0 || c.y.Sigma == 0 {
			continue // quadrature over X needs a proper density
		}
		got := Clark(c.x, c.y, c.rho)
		m1, m2 := exactMax2Moments(c.x, c.y, c.rho)
		sd := math.Sqrt(math.Max(0, m2-m1*m1))
		scale := math.Max(math.Abs(m1), sd)
		if math.Abs(got.Mu-m1) > 1e-9*scale {
			t.Errorf("case %+v: Clark mean %.12g vs exact %.12g", c, got.Mu, m1)
		}
		if math.Abs(got.Sigma-sd) > 1e-6*scale {
			t.Errorf("case %+v: Clark sd %.12g vs exact %.12g", c, got.Sigma, sd)
		}
	}
}

// TestMaxIIDGolden pins MaxIID outputs bit-for-bit. The values were
// captured from the pre-memoization O(n) tournament recursion, so they
// also prove the per-level memoization changed nothing — the recursion
// max(n) = Clark(max(⌈n/2⌉), max(⌊n/2⌋)) visits identical subtrees
// whether or not they are shared.
func TestMaxIIDGolden(t *testing.T) {
	cases := []struct {
		g    Gaussian
		n    int
		want Gaussian
	}{
		{Gaussian{0, 1}, 2, Gaussian{0.5641895835477564, 0.8256452711765563}},
		{Gaussian{0, 1}, 3, Gaussian{0.8476469880802562, 0.739608186443359}},
		{Gaussian{0, 1}, 7, Gaussian{1.3466792443687856, 0.5847316136411892}},
		{Gaussian{0, 1}, 100, Gaussian{2.332634241536307, 0.28055215872556233}},
		{Gaussian{0, 1}, 128, Gaussian{2.3895301384881984, 0.2615498558273335}},
		{Gaussian{10, 2}, 100, Gaussian{14.665268483072566, 0.5611043174511278}},
		{Gaussian{3.5e-09, 4.2e-10}, 12800, Gaussian{4.761269273696045e-09, 3.081891819998411e-11}},
	}
	for _, c := range cases {
		if got := MaxIID(c.g, c.n); got != c.want {
			t.Errorf("MaxIID(%+v, %d) = %+v, want %+v", c.g, c.n, got, c.want)
		}
	}
}

// TestMaxIIDLogarithmicCost proves the memoization makes huge n cheap:
// a 2^30-copy tournament is ~30 Clark evaluations. Without per-level
// sharing this call would perform over a billion.
func TestMaxIIDLogarithmicCost(t *testing.T) {
	g := Gaussian{Mu: 1, Sigma: 0.1}
	got := MaxIID(g, 1<<30)
	if math.IsNaN(got.Mu) || got.Mu <= g.Mu || got.Sigma <= 0 {
		t.Errorf("MaxIID(g, 2^30) = %+v not a plausible max law", got)
	}
	if small := MaxIID(g, 1<<10); got.Mu <= small.Mu {
		t.Errorf("E[max] not increasing: 2^30 gives %v, 2^10 gives %v", got.Mu, small.Mu)
	}
}

func TestMaxIIDEdgeCases(t *testing.T) {
	g := Gaussian{2, 1}
	if got := MaxIID(g, 1); got != g {
		t.Errorf("MaxIID(g, 1) = %+v", got)
	}
	if got := MaxIID(g, 0); got != g {
		t.Errorf("MaxIID(g, 0) = %+v", got)
	}
	if got := MaxIID(g, -5); got != g {
		t.Errorf("MaxIID(g, -5) = %+v", got)
	}
	// n=2 must equal a direct Clark call — the tournament base case.
	if got, want := MaxIID(g, 2), Clark(g, g, 0); got != want {
		t.Errorf("MaxIID(g, 2) = %+v, want Clark(g, g, 0) = %+v", got, want)
	}
}

// FuzzClark fuzzes the Clark invariants: finite sane inputs must yield
// a finite max law whose mean dominates both operand means, whose
// sigma is non-negative, and which is symmetric in its operands.
func FuzzClark(f *testing.F) {
	f.Add(0.0, 1.0, 0.0, 1.0, 0.0)
	f.Add(5.0, 0.5, 4.0, 1.5, 0.3)
	f.Add(-2.0, 1.0, 2.0, 1.0, -0.5)
	f.Add(3.0, 1.5, 4.0, 1.5, 1.0)
	f.Add(1e-9, 2e-10, 1.1e-9, 1e-10, 0.99)
	f.Fuzz(func(t *testing.T, mux, sx, muy, sy, rho float64) {
		// Constrain to the domain Clark is specified on: finite moments,
		// non-negative sigmas, a proper correlation.
		for _, v := range []float64{mux, sx, muy, sy, rho} {
			if math.IsNaN(v) || math.Abs(v) > 1e12 {
				t.Skip()
			}
		}
		if sx < 0 || sy < 0 || rho < -1 || rho > 1 {
			t.Skip()
		}
		x, y := Gaussian{mux, sx}, Gaussian{muy, sy}
		g := Clark(x, y, rho)
		if math.IsNaN(g.Mu) || math.IsInf(g.Mu, 0) || math.IsNaN(g.Sigma) || math.IsInf(g.Sigma, 0) {
			t.Fatalf("Clark(%+v, %+v, %v) = %+v not finite", x, y, rho, g)
		}
		if g.Sigma < 0 {
			t.Fatalf("negative sigma %v", g.Sigma)
		}
		floor := math.Max(mux, muy)
		slack := 1e-9 * (math.Abs(mux) + math.Abs(muy) + sx + sy)
		if g.Mu < floor-slack {
			t.Fatalf("E[max] %v below operand floor %v", g.Mu, floor)
		}
		if sw := Clark(y, x, rho); sw != g {
			t.Fatalf("not symmetric: %+v vs %+v", g, sw)
		}
	})
}
