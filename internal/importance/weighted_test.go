package importance

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Tests for the slice estimators over weighted draws: TailProb and
// WeightedQuantile reduce to their plain-MC forms under unit weights,
// and the quantile does not depend on the order of the draws.

// relClose reports whether a and b agree to within tol relative to
// their magnitude (absolute near zero).
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// weightedSample draws n (x, w) pairs with importance-like bounded
// weights.
func weightedSample(r *rand.Rand, n int) (xs, ws []float64) {
	xs = make([]float64, n)
	ws = make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 1
		ws[i] = math.Exp(r.NormFloat64()) // log-normal, heavy-ish tail
	}
	return xs, ws
}

// TestTailProbUnitWeightsBinomial reduces TailProb to the plain
// binomial estimator under unit weights.
func TestTailProbUnitWeightsBinomial(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	n := 2000
	xs := make([]float64, n)
	ws := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ws[i] = 1
	}
	const t0 = 1.0
	count := 0
	for _, x := range xs {
		if x > t0 {
			count++
		}
	}
	p, se := TailProb(xs, ws, t0)
	wantP := float64(count) / float64(n)
	if p != wantP {
		t.Errorf("p = %v, want exactly %v", p, wantP)
	}
	wantSE := math.Sqrt(wantP * (1 - wantP) / float64(n))
	if !relClose(se, wantSE, 1e-9) {
		t.Errorf("se = %v, want binomial %v", se, wantSE)
	}
}

// TestWeightedQuantileOrderInsensitive permutes (x, w) pairs and
// demands the identical (==) quantile, the determinism property the
// sharded sweep relies on.
func TestWeightedQuantileOrderInsensitive(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	xs, ws := weightedSample(r, 1000)
	// Inject exact ties to exercise the tie-break.
	for i := 0; i < 100; i++ {
		xs[i] = 1.5
	}
	want := WeightedQuantile(xs, ws, 0.99)
	perm := r.Perm(len(xs))
	px := make([]float64, len(xs))
	pw := make([]float64, len(ws))
	for i, j := range perm {
		px[i], pw[i] = xs[j], ws[j]
	}
	if got := WeightedQuantile(px, pw, 0.99); got != want {
		t.Errorf("permuted quantile %v != %v", got, want)
	}
}

// TestWeightedQuantileUnitWeights checks known positions on a tiny
// sample.
func TestWeightedQuantileUnitWeights(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	ws := []float64{1, 1, 1, 1, 1}
	cases := []struct{ q, want float64 }{
		{0.2, 1}, {0.21, 2}, {0.5, 3}, {0.9, 5}, {1.0, 5},
	}
	for _, c := range cases {
		if got := WeightedQuantile(xs, ws, c.q); got != c.want {
			t.Errorf("WeightedQuantile(q=%g) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(WeightedQuantile(nil, nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if !math.IsNaN(WeightedQuantile([]float64{1}, []float64{0}, 0.5)) {
		t.Error("zero-total-weight quantile should be NaN")
	}
}
