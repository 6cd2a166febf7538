package stats

import "math"

// Normal is a Gaussian distribution with mean Mu and standard deviation
// Sigma. Sigma must be positive for the density and quantile functions to
// be meaningful; Sigma == 0 degenerates to a point mass at Mu.
type Normal struct {
	Mu    float64
	Sigma float64
}

// PDF returns the probability density at x.
func (n Normal) PDF(x float64) float64 {
	if n.Sigma == 0 {
		if x == n.Mu {
			return math.Inf(1)
		}
		return 0
	}
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X ≤ x).
func (n Normal) CDF(x float64) float64 {
	if n.Sigma == 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Quantile returns the inverse CDF at probability p ∈ (0, 1).
// It returns ±Inf at p = 0 and p = 1 and NaN outside [0, 1].
func (n Normal) Quantile(p float64) float64 {
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	return n.Mu + n.Sigma*standardNormalQuantile(p)
}

// standardNormalQuantile evaluates Φ⁻¹(p) with Acklam's rational
// approximation followed by one Halley refinement step, giving ~1e-15
// relative accuracy across (0, 1).
func standardNormalQuantile(p float64) float64 {
	// Coefficients from Peter Acklam's algorithm (2003).
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One step of Halley's method against the exact CDF.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}
