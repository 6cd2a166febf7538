package importance

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TailProb estimates p = Pr[X > t] from weighted samples with the
// self-normalized estimator Σwᵢ·1{xᵢ>t}/Σwᵢ and returns it with its
// delta-method standard error √(Σwᵢ²(1{xᵢ>t}−p̂)²)/Σwᵢ. With unit
// weights both reduce to the usual binomial estimator and its standard
// error. xs and ws must have equal length. It is the reference the
// tests hold TailProbCtx to: the same reduction over every draw.
func TailProb(xs, ws []float64, t float64) (p, stderr float64) {
	var sumw, sumwh float64
	for i, x := range xs {
		sumw += ws[i]
		if x > t {
			sumwh += ws[i]
		}
	}
	if sumw == 0 {
		return math.NaN(), math.NaN()
	}
	p = sumwh / sumw
	var v float64
	for i, x := range xs {
		h := 0.0
		if x > t {
			h = 1.0
		}
		d := ws[i] * (h - p)
		v += d * d
	}
	return p, math.Sqrt(v) / sumw
}

// relClose reports whether a and b agree to within tol relative to
// their magnitude (absolute near zero).
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
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
