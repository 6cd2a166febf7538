package importance

import (
	"context"
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// The tail estimator censors draws and skips the exp of unit weights.
// Neither may move a bit of what the tail kernels report: the tests
// below hold TailProbCtx to the draw-everything path it replaced, the
// proposal weight formula evaluated at every draw, then TailProb and
// Diagnose.

// referenceWeight is the proposal weight formula as it was before the
// mix = 1 shortcut: one exp per draw.
func referenceWeight(p Params, z float64) float64 {
	return 1 / (p.Mix + (1-p.Mix)*math.Exp(p.Shift*z-p.Shift*p.Shift/2))
}

// referenceTail draws n samples as SampleCtx lays them out — sample i
// on the (seed, i) sub-stream, one uniform for the mixture component,
// one Gaussian — pushes every one through Φ and fn, weighs every one
// with referenceWeight, and reduces with TailProb and Diagnose.
func referenceTail(t *testing.T, p Params, seed uint64, n int, fn func(float64) float64, target float64) (prob, se float64, d Diagnostics) {
	t.Helper()
	p, err := p.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, n)
	ws := make([]float64, n)
	var r rng.Stream
	for i := range xs {
		r.Reset(seed, i)
		u := r.Float64()
		z := r.Norm()
		if u >= p.Mix {
			z += p.Shift
		}
		xs[i] = fn(stdNormal.CDF(z))
		ws[i] = referenceWeight(p, z)
	}
	prob, se = TailProb(xs, ws, target)
	return prob, se, Diagnose(ws)
}

// sameDiagnostics compares every Diagnostics field, floats by bits.
func sameDiagnostics(a, b Diagnostics) bool {
	return a.N == b.N && a.Degenerate == b.Degenerate &&
		math.Float64bits(a.ESS) == math.Float64bits(b.ESS) &&
		math.Float64bits(a.ESSFrac) == math.Float64bits(b.ESSFrac) &&
		math.Float64bits(a.MaxW) == math.Float64bits(b.MaxW)
}

// chipTable is the canonical datapath's chip-law table, the map the
// tail kernels push their draws through.
func chipTable(node tech.Node, vdd float64) *ssta.Table {
	return ssta.LawFor(node.Dev, node.Var, vdd, tech.ChainLength, simd.DefaultPathsPerLane, simd.DefaultLanes).Table()
}

// tailGrid runs fn at every calibrated node × 0.40–0.80 V in 50 mV
// steps × tail σ {2, 3, 4, 6}, with the chip table, the target at Φ(σ)
// and the table's censoring floor there; one parallel subtest per node.
func tailGrid(t *testing.T, fn func(t *testing.T, vdd, sigma float64, tbl *ssta.Table, target, floor float64)) {
	for _, node := range tech.Nodes() {
		node := node
		t.Run(node.Name, func(t *testing.T) {
			t.Parallel()
			for k := 0; k <= 8; k++ {
				vdd := 0.40 + 0.05*float64(k)
				tbl := chipTable(node, vdd)
				for _, sigma := range []float64{2, 3, 4, 6} {
					u := stdNormal.CDF(sigma)
					fn(t, vdd, sigma, tbl, tbl.Chip(u), tbl.ChipFloor(u))
				}
			}
		})
	}
}

// TestTailProbCtxMatchesReference: p, its stderr and every diagnostics
// field equal the reference path bit for bit across the tail grid, for
// plain MC (Mix 1) and the default IS mixture at shift σ, × 2 seeds,
// with the table's censoring floor and with censoring off (−∞). Every
// grid point must censor: a floor of −∞ there would leave the fast
// path untested.
func TestTailProbCtxMatchesReference(t *testing.T) {
	const n = 3000
	tailGrid(t, func(t *testing.T, vdd, sigma float64, tbl *ssta.Table, target, floor float64) {
		if math.IsInf(floor, -1) {
			t.Errorf("vdd %.2f σ %g: no censoring floor", vdd, sigma)
		}
		for _, p := range []Params{{Mix: 1}, {Shift: sigma}} {
			for _, seed := range []uint64{1, 2} {
				wantP, wantSE, wantD := referenceTail(t, p, seed, n, tbl.Chip, target)
				for _, fl := range []float64{floor, math.Inf(-1)} {
					gotP, gotSE, gotD, err := TailProbCtx(context.Background(), p, seed, n, tbl.Chip, target, fl)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(gotP) != math.Float64bits(wantP) || math.Float64bits(gotSE) != math.Float64bits(wantSE) || !sameDiagnostics(gotD, wantD) {
						t.Fatalf("vdd %.2f σ %g %+v seed %d floor %v: (%v ± %v, %+v), reference (%v ± %v, %+v)",
							vdd, sigma, p, seed, fl, gotP, gotSE, gotD, wantP, wantSE, wantD)
					}
				}
			}
		}
	})
}

// TestTailProbCtxZStageBound checks the z-stage's stated assumption on
// every censoring floor of the tail grid: the computed Φ stays at or
// below the floor at zFloor, at 10⁴ successive Nextafter steps below
// it, and on a 10⁵-point grid from zFloor down to −10; at zFloor itself
// it is at most floor − zMargin, as constructed.
func TestTailProbCtxZStageBound(t *testing.T) {
	tailGrid(t, func(t *testing.T, vdd, sigma float64, _ *ssta.Table, _, floor float64) {
		zf := zFloorFor(floor)
		if math.IsInf(zf, -1) {
			t.Fatalf("vdd %.2f σ %g: floor %v gives no z-stage", vdd, sigma, floor)
		}
		if u := stdNormal.CDF(zf); u > floor-zMargin {
			t.Fatalf("vdd %.2f σ %g: Φ(zFloor %v) = %v above floor %v − zMargin", vdd, sigma, zf, u, floor)
		}
		z := zf
		for k := 0; k < 10000; k++ {
			z = math.Nextafter(z, math.Inf(-1))
			if u := stdNormal.CDF(z); u > floor {
				t.Fatalf("vdd %.2f σ %g: Φ(%v) = %v above floor %v, %d steps below zFloor", vdd, sigma, z, u, floor, k+1)
			}
		}
		const grid = 100000
		for k := 1; k <= grid; k++ {
			z := zf - (zf+10)*float64(k)/grid
			if u := stdNormal.CDF(z); u > floor {
				t.Fatalf("vdd %.2f σ %g: Φ(%v) = %v above floor %v", vdd, sigma, z, u, floor)
			}
		}
	})
}

// TestZFloorEdges: a floor too low for the margin, −∞ or NaN censors
// nothing in z, and a floor near 1 still yields a confirmed zFloor.
func TestZFloorEdges(t *testing.T) {
	for _, floor := range []float64{math.Inf(-1), math.NaN(), -1, 0, zMargin, zMargin / 2} {
		if zf := zFloorFor(floor); !math.IsInf(zf, -1) {
			t.Errorf("floor %v: zFloor %v, want -Inf", floor, zf)
		}
	}
	for _, floor := range []float64{2 * zMargin, 1e-6, 0.5, 1 - 1e-9, 1 - 2*zMargin, math.Nextafter(1, 0)} {
		zf := zFloorFor(floor)
		if math.IsInf(zf, 0) || math.IsNaN(zf) || stdNormal.CDF(zf) > floor-zMargin {
			t.Errorf("floor %v: zFloor %v with Φ = %v", floor, zf, stdNormal.CDF(zf))
		}
	}
}

// TestTailProbCtxIdentity: on the identity pushforward with no floor,
// TailProbCtx equals SampleCtx + TailProb + Diagnose, including the
// empty draw, and rejects a proposal Normalized rejects.
func TestTailProbCtxIdentity(t *testing.T) {
	for _, n := range []int{0, 1, 500} {
		for _, p := range []Params{{Mix: 1}, {Shift: 3}, {Shift: 2, Mix: 0.5}} {
			xs, ws := sample(t, p, 29, n, identity)
			wantP, wantSE := TailProb(xs, ws, 1)
			wantD := Diagnose(ws)
			gotP, gotSE, gotD, err := TailProbCtx(context.Background(), p, 29, n, identity, 1, math.Inf(-1))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(gotP) != math.Float64bits(wantP) || math.Float64bits(gotSE) != math.Float64bits(wantSE) || !sameDiagnostics(gotD, wantD) {
				t.Errorf("n %d %+v: (%v ± %v, %+v), want (%v ± %v, %+v)", n, p, gotP, gotSE, gotD, wantP, wantSE, wantD)
			}
		}
	}
	if _, _, _, err := TailProbCtx(context.Background(), Params{Mix: 2}, 1, 10, identity, 0, math.Inf(-1)); err == nil {
		t.Error("TailProbCtx accepted Mix 2")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := TailProbCtx(ctx, Params{Mix: 1}, 1, 10000, identity, 0, math.Inf(-1)); err == nil {
		t.Error("TailProbCtx ignored a cancelled context")
	}
}

// TestWeightMatchesFormula: the proposal weight, with its mix = 1
// shortcut, equals the formula bit for bit, at ordinary and extreme z
// (±Inf, NaN) and shifts (zero, huge enough that the exponent rounds
// to +Inf or NaN).
func TestWeightMatchesFormula(t *testing.T) {
	zs := []float64{0, 1e-300, -2.5, 3, 14.9, -14.9, 40, -40, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, p := range []Params{{Mix: 1}, {Shift: 4, Mix: 1}, {Shift: -3, Mix: 1}, {Shift: 1e200, Mix: 1}, {Shift: 1e308, Mix: 1}, {Shift: 4, Mix: 0.25}} {
		for _, z := range zs {
			if got, want := p.weight(z), referenceWeight(p, z); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%+v z %v: weight %v, formula %v", p, z, got, want)
			}
		}
	}
}
