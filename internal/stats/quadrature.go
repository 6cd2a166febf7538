package stats

import "math"

// Rule is a quadrature rule for Gaussian expectations:
//
//	E[f(Z)] ≈ Σ W[i]·f(X[i]),  Z ~ Normal(0, 1)
//
// X holds the nodes in ascending order and W their weights, which are
// positive and sum to 1. A rule is built once and only read after, so
// one value is safe to share between goroutines.
type Rule struct {
	X, W []float64
}

// pointMass is the one-node rule of a Normal(0, 0) variable.
var pointMass = Rule{X: []float64{0}, W: []float64{1}}

// For returns the rule to integrate a Normal(0, σ) axis with: r itself,
// or for σ = 0 the point mass at 0, so a degenerate axis costs one node
// and integrates exactly.
func (r Rule) For(sigma float64) Rule {
	if sigma == 0 {
		return pointMass
	}
	return r
}

// Expect returns E[f(σZ)] under the rule: the expectation over a
// Normal(0, σ) variable. σ = 0 returns f(0) exactly.
func (r Rule) Expect(sigma float64, f func(float64) float64) float64 {
	q := r.For(sigma)
	var sum float64
	for i, z := range q.X {
		sum += q.W[i] * f(sigma*z)
	}
	return sum
}

// GaussHermite returns the n-point Gauss–Hermite rule for the standard
// normal: exact for every polynomial of degree ≤ 2n−1, and the rule of
// choice for smooth integrands. The nodes are the roots of the degree-n
// probabilists' Hermite polynomial, found by Newton iteration on the
// orthonormal three-term recurrence from the initial guesses of
// Numerical Recipes' gauher (rescaled by √2); each weight is
// 1/(n·q_{n−1}(x)²) for the orthonormal polynomial q_{n−1}. It panics
// if n < 1.
func GaussHermite(n int) Rule {
	if n < 1 {
		panic("stats: GaussHermite needs n ≥ 1")
	}
	// hermite evaluates the orthonormal q_n and q_{n−1} at x by the
	// recurrence q_{j+1} = (x·q_j − √j·q_{j−1}) / √(j+1), q_0 = 1.
	hermite := func(x float64) (qn, qn1 float64) {
		qn = 1
		for j := 0; j < n; j++ {
			qn, qn1 = (x*qn-math.Sqrt(float64(j))*qn1)/math.Sqrt(float64(j+1)), qn
		}
		return qn, qn1
	}
	weight := func(x float64) float64 {
		_, qn1 := hermite(x)
		return 1 / (float64(n) * qn1 * qn1)
	}
	r := Rule{X: make([]float64, n), W: make([]float64, n)}
	var x float64
	for i := 0; i < n/2; i++ { // the positive roots, largest first
		switch i {
		case 0:
			x = math.Sqrt2 * (math.Sqrt(float64(2*n+1)) - 1.85575*math.Pow(float64(2*n+1), -1.0/6))
		case 1:
			x -= 2.28 * math.Pow(float64(n), 0.426) / x
		case 2:
			x = 1.86*x - 0.86*r.X[n-1]
		case 3:
			x = 1.91*x - 0.91*r.X[n-2]
		default:
			x = 2*x - r.X[n-i+1]
		}
		for it := 0; it < 100; it++ {
			qn, qn1 := hermite(x)
			dx := qn / (math.Sqrt(float64(n)) * qn1)
			x -= dx
			if math.Abs(dx) <= 1e-15*math.Abs(x) {
				break
			}
		}
		r.X[i], r.X[n-1-i] = -x, x
		r.W[i] = weight(x)
		r.W[n-1-i] = r.W[i]
	}
	if n%2 == 1 {
		r.W[n/2] = weight(0) // the middle root of an odd degree is 0
	}
	return r
}

// NormalSimpson returns the composite-Simpson rule over ±span standard
// deviations with the given even number of intervals, each node
// weighted by the normal density and the weights normalized to sum to
// 1. Unlike Gauss–Hermite it spaces its nodes evenly, which suits
// integrands whose mass sits in a tail or that are only piecewise
// smooth. It panics unless span > 0 and intervals is even and positive.
func NormalSimpson(span float64, intervals int) Rule {
	if !(span > 0) || intervals < 2 || intervals%2 == 1 {
		panic("stats: NormalSimpson needs span > 0 and an even, positive interval count")
	}
	r := Rule{X: make([]float64, intervals+1), W: make([]float64, intervals+1)}
	h := 2 * span / float64(intervals)
	var sum float64
	for i := range r.X {
		z := -span + float64(i)*h
		c := 2.0
		switch {
		case i == 0 || i == intervals:
			c = 1
		case i%2 == 1:
			c = 4
		}
		r.X[i] = z
		r.W[i] = c * math.Exp(-0.5*z*z)
		sum += r.W[i]
	}
	for i := range r.W {
		r.W[i] /= sum
	}
	return r
}
