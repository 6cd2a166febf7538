package optimize

import (
	"math"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		dx, dy := x[0]-3, x[1]+1
		return dx*dx + 2*dy*dy + 5
	}
	res := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if math.Abs(res.X[0]-3) > 1e-4 || math.Abs(res.X[1]+1) > 1e-4 {
		t.Errorf("minimum at %v, want (3, -1)", res.X)
	}
	if math.Abs(res.F-5) > 1e-7 {
		t.Errorf("F = %v, want 5", res.F)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 10000})
	// Restart to polish — standard practice for Nelder–Mead on banana
	// valleys and exactly what the calibration code does.
	res = NelderMead(f, res.X, NelderMeadOptions{MaxIter: 10000, Scale: 0.01})
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("minimum at %v, want (1, 1)", res.X)
	}
}

func TestNelderMeadRejectsInfeasible(t *testing.T) {
	// Constrained region x > 0 enforced by +Inf.
	f := func(x []float64) float64 {
		if x[0] <= 0 {
			return math.Inf(1)
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	res := NelderMead(f, []float64{1}, NelderMeadOptions{})
	if math.Abs(res.X[0]-2) > 1e-5 {
		t.Errorf("minimum at %v, want 2", res.X)
	}
}

func TestNelderMeadEmpty(t *testing.T) {
	called := false
	res := NelderMead(func([]float64) float64 { called = true; return 7 }, nil, NelderMeadOptions{})
	if !called || res.F != 7 {
		t.Error("zero-dimensional objective mishandled")
	}
}
