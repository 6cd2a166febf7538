package simd

import (
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/variation"
)

// gateLevel is the gate-level sampler, the reference the law- and
// moment-based samplers are KS-tested against: every gate of every path
// is drawn from internal/variation, under the datapath's correlation
// model. Each method draws one sample from the stream it is handed, so
// montecarlo.SampleCtx runs it like the package's own samplers.
type gateLevel struct {
	dp  *Datapath
	vdd float64
}

// path draws one critical-path delay.
func (g gateLevel) path(r *rng.Stream) float64 {
	vs := variation.NewSampler(g.dp.Node.Dev, g.dp.Node.Var)
	return vs.FreshChainDelay(r, g.vdd, g.dp.ChainLen)
}

// lane draws one lane delay.
func (g gateLevel) lane(r *rng.Stream) float64 {
	var lane [1]float64
	g.lanes(r, lane[:])
	return lane[0]
}

// chip draws one zero-spare chip delay, the slowest of dp.Lanes lanes.
func (g gateLevel) chip(r *rng.Stream) float64 {
	lanes := make([]float64, g.dp.Lanes)
	g.lanes(r, lanes)
	return slices.Max(lanes)
}

// lanes draws the delays of len(dst) lanes of one chip into dst.
func (g gateLevel) lanes(r *rng.Stream, dst []float64) {
	dp := g.dp
	s := variation.NewSampler(dp.Node.Dev, dp.Node.Var)
	var die variation.Die
	var field laneField
	switch dp.Corr {
	case SharedDie:
		die = s.Die(r)
	case Spatial:
		field = newLaneField(dp.Node.Var.SigmaVthD2D, dp.Node.Var.SigmaMulD2D, dp.CorrLanes)
	}
	for i := range dst {
		switch dp.Corr {
		case SharedDie:
			// die fixed for the whole chip
		case Spatial:
			dvth, mul := field.next(r)
			die = variation.Die{DVth: dvth, Mul: mul}
		default:
			die = s.Die(r)
		}
		worst := 0.0
		for p := 0; p < dp.PathsPerLane; p++ {
			if dp.Corr == IIDPaths && p > 0 {
				die = s.Die(r) // fresh draw per path: fully independent paths
			}
			d := s.ChainDelay(r, g.vdd, dp.ChainLen, die)
			if d > worst {
				worst = d
			}
		}
		dst[i] = worst
	}
}

// referenceTable is the chip-delay law as this package tabulated it
// before internal/ssta's Law became the one law: the path CDF summed in
// the CDF domain on a 1024-point grid over ±(8σ, 10σ) of the mixture,
// and its lane and chip powers.
type referenceTable struct {
	x, path, lane, chip []float64
}

// referenceLaw is that construction, kept as the independent reference
// the one law's table is held to.
func referenceLaw(dp *Datapath, vdd float64) referenceTable {
	const gridPoints, quadPoints = 1024, 17
	v := dp.Node.Var
	p := dp.Node.Dev

	dGrid, dW := gaussGrid(v.SigmaVthD2D, quadPoints)
	gGrid, gW := gaussGrid(v.SigmaMulD2D, quadPoints)

	type cond struct{ mu, sigma, mul, w float64 }
	conds := make([]cond, 0, len(dGrid)*len(gGrid))
	xlo, xhi := math.Inf(1), math.Inf(-1)
	for i, d := range dGrid {
		m, vr := device.ChainConditionalMoments(p, v, vdd, dp.ChainLen, d)
		s := math.Sqrt(vr)
		for j, g := range gGrid {
			mul := math.Exp(g)
			conds = append(conds, cond{mu: m, sigma: s, mul: mul, w: dW[i] * gW[j]})
			if lo := (m - 8*s) * mul; lo < xlo {
				xlo = lo
			}
			if hi := (m + 10*s) * mul; hi > xhi {
				xhi = hi
			}
		}
	}
	if xlo < 0 {
		xlo = 0
	}

	t := referenceTable{
		x:    make([]float64, gridPoints),
		path: make([]float64, gridPoints),
		lane: make([]float64, gridPoints),
		chip: make([]float64, gridPoints),
	}
	std := stats.Normal{Mu: 0, Sigma: 1}
	for k := 0; k < gridPoints; k++ {
		x := xlo + (xhi-xlo)*float64(k)/float64(gridPoints-1)
		var f float64
		for _, c := range conds {
			f += c.w * std.CDF((x/c.mul-c.mu)/c.sigma)
		}
		f = math.Min(math.Max(f, 0), 1)
		t.x[k] = x
		t.path[k] = f
		t.lane[k] = math.Pow(f, float64(dp.PathsPerLane))
		t.chip[k] = math.Pow(t.lane[k], float64(dp.Lanes))
	}
	return t
}

// gaussGrid returns a quadrature grid over ±5σ with normalized Simpson ×
// Gaussian-density weights. For σ = 0 it degenerates to a point mass.
func gaussGrid(sigma float64, n int) (grid, w []float64) {
	if sigma == 0 {
		return []float64{0}, []float64{1}
	}
	if n%2 == 0 {
		n++
	}
	grid = make([]float64, n)
	w = make([]float64, n)
	lo, hi := -5*sigma, 5*sigma
	h := (hi - lo) / float64(n-1)
	var sum float64
	for i := range grid {
		x := lo + float64(i)*h
		grid[i] = x
		c := 2.0
		switch {
		case i == 0 || i == n-1:
			c = 1
		case i%2 == 1:
			c = 4
		}
		z := x / sigma
		w[i] = c * math.Exp(-0.5*z*z)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return grid, w
}

// invertReference inverts a reference column at u by binary search and
// linear interpolation.
func invertReference(x, f []float64, u float64) float64 {
	i := sort.SearchFloat64s(f, u)
	switch {
	case i <= 0:
		return x[0]
	case i >= len(f):
		return x[len(x)-1]
	}
	if f[i] == f[i-1] {
		return x[i]
	}
	return x[i-1] + (x[i]-x[i-1])*(u-f[i-1])/(f[i]-f[i-1])
}

// TestLawTableMatchesReference holds the sampling table of the one law
// to the construction it replaced: on every calibrated node from 0.30 V
// to 1.10 V in 12.5 mV steps, the lane and chip delays the two tables
// map one uniform to agree within 2e-4 relative, at fixed levels from
// 10⁻³ to 1−10⁻⁴ and at 500 stream uniforms per supply.
func TestLawTableMatchesReference(t *testing.T) {
	const tol = 2e-4
	levels := []float64{1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999}
	nodes, _ := exactGrid()
	for _, node := range nodes {
		node := node
		t.Run(node.Name, func(t *testing.T) {
			t.Parallel()
			dp := New(node)
			for k := 0; k <= 64; k++ {
				vdd := 0.30 + 0.0125*float64(k)
				ref, law := referenceLaw(dp, vdd), dp.law(vdd)
				r := rng.NewSub(5, k)
				us := append([]float64(nil), levels...)
				for i := 0; i < 500; i++ {
					us = append(us, r.Float64())
				}
				for _, u := range us {
					for _, c := range []struct {
						name      string
						got, want float64
					}{
						{"lane", law.Lane(u), invertReference(ref.x, ref.lane, u)},
						{"chip", law.Chip(u), invertReference(ref.x, ref.chip, u)},
					} {
						if rel := math.Abs(c.got-c.want) / c.want; !(rel <= tol) {
							t.Fatalf("vdd %g u=%v: %s delay %v, reference %v (%.3g relative)", vdd, u, c.name, c.got, c.want, rel)
						}
					}
				}
			}
		})
	}
}
