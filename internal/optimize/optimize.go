// Package optimize provides the derivative-free Nelder–Mead simplex
// minimizer that device-model calibration (internal/tech) fits its
// least-squares objective with. The one-dimensional searches elsewhere
// (the spare, margin and quantile solves) bisect inline, each on its
// own monotone criterion.
package optimize

import (
	"math"
	"sort"
)

// Result reports the outcome of a minimization.
type Result struct {
	X     []float64 // best point found
	F     float64   // objective value at X
	Iters int       // iterations performed
}

// NelderMeadOptions configures NelderMead. Zero values select defaults.
type NelderMeadOptions struct {
	MaxIter int     // default 2000
	TolF    float64 // stop when simplex f-spread < TolF (default 1e-10)
	TolX    float64 // stop when simplex x-spread < TolX (default 1e-10)
	Scale   float64 // initial simplex step per coordinate (default 0.1 or 10% of |x|)
}

// NelderMead minimizes f starting from x0 using the Nelder–Mead simplex
// with standard coefficients (reflection 1, expansion 2, contraction 0.5,
// shrink 0.5). f may return +Inf to reject infeasible points.
func NelderMead(f func([]float64) float64, x0 []float64, opt NelderMeadOptions) Result {
	n := len(x0)
	if n == 0 {
		return Result{X: nil, F: f(nil)}
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 2000
	}
	if opt.TolF == 0 {
		opt.TolF = 1e-10
	}
	if opt.TolX == 0 {
		opt.TolX = 1e-10
	}

	type vertex struct {
		x []float64
		f float64
	}
	eval := func(x []float64) vertex {
		return vertex{x: append([]float64(nil), x...), f: f(x)}
	}

	// Build the initial simplex: x0 plus one perturbed point per axis.
	simplex := make([]vertex, 0, n+1)
	simplex = append(simplex, eval(x0))
	for i := 0; i < n; i++ {
		x := append([]float64(nil), x0...)
		step := opt.Scale
		if step == 0 {
			step = 0.1 * math.Abs(x[i])
			if step == 0 {
				step = 0.1
			}
		}
		x[i] += step
		simplex = append(simplex, eval(x))
	}

	centroid := make([]float64, n)
	trial := make([]float64, n)
	iters := 0
	for ; iters < opt.MaxIter; iters++ {
		sort.Slice(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
		best, worst := simplex[0], simplex[n]

		// Convergence: function spread and simplex diameter.
		fSpread := math.Abs(worst.f - best.f)
		var xSpread float64
		for i := 0; i < n; i++ {
			d := math.Abs(worst.x[i] - best.x[i])
			if d > xSpread {
				xSpread = d
			}
		}
		if fSpread < opt.TolF && xSpread < opt.TolX {
			break
		}

		// Centroid of all but the worst vertex.
		for i := range centroid {
			centroid[i] = 0
		}
		for _, v := range simplex[:n] {
			for i, xi := range v.x {
				centroid[i] += xi
			}
		}
		for i := range centroid {
			centroid[i] /= float64(n)
		}

		// Reflection.
		for i := range trial {
			trial[i] = centroid[i] + (centroid[i] - worst.x[i])
		}
		refl := eval(trial)
		switch {
		case refl.f < best.f:
			// Expansion.
			for i := range trial {
				trial[i] = centroid[i] + 2*(centroid[i]-worst.x[i])
			}
			exp := eval(trial)
			if exp.f < refl.f {
				simplex[n] = exp
			} else {
				simplex[n] = refl
			}
		case refl.f < simplex[n-1].f:
			simplex[n] = refl
		default:
			// Contraction, toward the better of worst/reflected.
			contractBase := worst
			if refl.f < worst.f {
				contractBase = refl
			}
			for i := range trial {
				trial[i] = centroid[i] + 0.5*(contractBase.x[i]-centroid[i])
			}
			con := eval(trial)
			if con.f < contractBase.f {
				simplex[n] = con
			} else {
				// Shrink everything toward the best vertex.
				for j := 1; j <= n; j++ {
					for i := range simplex[j].x {
						simplex[j].x[i] = best.x[i] + 0.5*(simplex[j].x[i]-best.x[i])
					}
					simplex[j] = eval(simplex[j].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
	return Result{X: simplex[0].x, F: simplex[0].f, Iters: iters}
}
