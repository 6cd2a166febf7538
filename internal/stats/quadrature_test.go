package stats

import (
	"math"
	"testing"
)

// normalMoment returns E[Z^k]: (k−1)!! for even k, 0 for odd.
func normalMoment(k int) float64 {
	if k%2 == 1 {
		return 0
	}
	m := 1.0
	for j := k - 1; j > 1; j -= 2 {
		m *= float64(j)
	}
	return m
}

// TestGaussHermiteExactOnPolynomials: the n-point rule has ascending,
// symmetric nodes and positive weights summing to 1, and integrates
// every monomial up to degree 2n−1 exactly (capped at 30, past which
// the moments outgrow float64's integer range).
func TestGaussHermiteExactOnPolynomials(t *testing.T) {
	for n := 1; n <= 40; n++ {
		r := GaussHermite(n)
		if len(r.X) != n || len(r.W) != n {
			t.Fatalf("n=%d: %d nodes, %d weights", n, len(r.X), len(r.W))
		}
		var wsum float64
		for i := range r.X {
			if i > 0 && !(r.X[i] > r.X[i-1]) {
				t.Fatalf("n=%d: nodes not ascending at %d: %v", n, i, r.X)
			}
			if r.X[i] != -r.X[n-1-i] || r.W[i] != r.W[n-1-i] {
				t.Fatalf("n=%d: rule not symmetric at %d", n, i)
			}
			if !(r.W[i] > 0) {
				t.Fatalf("n=%d: weight %d = %v", n, i, r.W[i])
			}
			wsum += r.W[i]
		}
		if math.Abs(wsum-1) > 1e-13 {
			t.Errorf("n=%d: weights sum to %v", n, wsum)
		}
		for k := 1; k <= min(2*n-1, 30); k++ {
			var got, scale float64
			for i, x := range r.X {
				term := r.W[i] * math.Pow(x, float64(k))
				got += term
				scale += math.Abs(term)
			}
			if want := normalMoment(k); math.Abs(got-want) > 1e-13*scale {
				t.Errorf("n=%d: E[Z^%d] = %v, want %v", n, k, got, want)
			}
		}
	}
}

func TestRulesPanicOnBadSizes(t *testing.T) {
	for name, build := range map[string]func(){
		"GaussHermite(0)":      func() { GaussHermite(0) },
		"NormalSimpson(8, 63)": func() { NormalSimpson(8, 63) },
		"NormalSimpson(0, 64)": func() { NormalSimpson(0, 64) },
		"NormalSimpson(8, 0)":  func() { NormalSimpson(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			build()
		}()
	}
}

// TestNormalSimpson: the rule spans ±span on an even grid, its
// normalized weights integrate 1 exactly and z² to Simpson accuracy,
// and divided by the density they are Simpson's weights.
func TestNormalSimpson(t *testing.T) {
	for _, c := range []struct {
		span      float64
		intervals int
		tol       float64
	}{
		{8, 64, 1e-13},
		{8, 160, 1e-13},
		{5, 16, 5e-5}, // the 17-point die grid: at h = 0.625 Simpson's error is ≈4e-5
	} {
		r := NormalSimpson(c.span, c.intervals)
		if len(r.X) != c.intervals+1 || r.X[0] != -c.span || r.X[c.intervals] != c.span {
			t.Fatalf("span %v/%d: nodes %v", c.span, c.intervals, r.X)
		}
		var one, z2 float64
		for i, z := range r.X {
			one += r.W[i]
			z2 += r.W[i] * z * z
		}
		if math.Abs(one-1) > 1e-14 {
			t.Errorf("span %v/%d: weights sum to %v", c.span, c.intervals, one)
		}
		if math.Abs(z2-1) > c.tol {
			t.Errorf("span %v/%d: E[Z²] = %v, want 1 ± %g", c.span, c.intervals, z2, c.tol)
		}
		// Divided by the density, the weights are Simpson's, which is
		// exact on quadratics: the mean of z² over [−span, span] is
		// span²/3.
		var u0, u2 float64
		for i, z := range r.X {
			u := r.W[i] / math.Exp(-0.5*z*z)
			u0 += u
			u2 += u * z * z
		}
		if want := c.span * c.span / 3; math.Abs(u2/u0-want) > 1e-12*want {
			t.Errorf("span %v/%d: unweighted mean of z² %v, want %v", c.span, c.intervals, u2/u0, want)
		}
	}
}

// TestRuleExpect: Expect scales the nodes by σ, and at σ = 0 the rule
// degenerates to the point mass, so Expect returns f(0).
func TestRuleExpect(t *testing.T) {
	r := GaussHermite(8)
	sq := func(x float64) float64 { return x * x }
	if got := r.Expect(0.3, sq); math.Abs(got-0.09) > 1e-15 {
		t.Errorf("E[X²] at σ=0.3 = %v, want 0.09", got)
	}
	if q := r.For(0); len(q.X) != 1 || q.X[0] != 0 || q.W[0] != 1 {
		t.Errorf("σ=0 rule %+v, want the point mass at 0", q)
	}
	if got := r.Expect(0, math.Cos); got != 1 {
		t.Errorf("σ=0 expectation %v, want cos(0) = 1", got)
	}
	// E[e^X] = e^{σ²/2}: not a polynomial, so only approximate.
	if got, want := r.Expect(0.5, math.Exp), math.Exp(0.125); math.Abs(got-want) > 1e-12 {
		t.Errorf("E[e^X] = %v, want %v", got, want)
	}
}
