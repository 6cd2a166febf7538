package ssta_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// lawGridVdds is the near-threshold band every law-vs-MC property below
// sweeps, crossed with all four technology nodes — the full grid the
// sweep service's ssta mode answers over.
var lawGridVdds = []float64{0.50, 0.55, 0.60}

func defaultLaw(node tech.Node, vdd float64) *ssta.Law {
	return ssta.NewLaw(node.Dev, node.Var, vdd, tech.ChainLength,
		simd.DefaultPathsPerLane, simd.DefaultLanes)
}

// quantileCI returns the two-sided confidence interval of the
// p-quantile from sorted MC samples at confidence z sigmas, using the
// distribution-free order-statistic bracket: the number of samples
// below the true quantile is Binomial(n, p), so the interval is
// [X_(np−z√(np(1−p))), X_(np+z√(np(1−p)))].
func quantileCI(sorted []float64, p, z float64) (lo, hi float64) {
	n := float64(len(sorted))
	se := z * math.Sqrt(n*p*(1-p))
	li := int(math.Floor(n*p - se))
	hi64 := int(math.Ceil(n*p + se))
	if li < 0 {
		li = 0
	}
	if hi64 > len(sorted)-1 {
		hi64 = len(sorted) - 1
	}
	return sorted[li], sorted[hi64]
}

// TestLawP99WithinMCConfidenceInterval is the headline SSTA-vs-MC
// contract: at every point of the full tech-node × Vdd grid, the
// analytic chip-delay law's p99 must land inside the 99 % confidence
// interval of a Monte-Carlo p99 — the acceptance bar for answering the
// p99chipclock kernel analytically.
func TestLawP99WithinMCConfidenceInterval(t *testing.T) {
	const samples = 6000
	const z99 = 2.5758293035489004 // Φ⁻¹(0.995): two-sided 99 %
	for _, node := range tech.Nodes() {
		for _, vdd := range lawGridVdds {
			law := defaultLaw(node, vdd)
			got := law.ChipQuantile(0.99)

			ds, err := simd.New(node).ChipDelaysCtx(context.Background(), 7, samples, vdd, 0)
			if err != nil {
				t.Fatal(err)
			}
			sort.Float64s(ds)
			lo, hi := quantileCI(ds, 0.99, z99)
			if got < lo || got > hi {
				t.Errorf("%s @%.2fV: SSTA p99 %.6g outside MC 99%% CI [%.6g, %.6g]",
					node.Name, vdd, got, lo, hi)
			}
		}
	}
}

// TestLawTailAgainstTheory pins the tail identity that makes the
// tail-yield kernel analytic: the probability mass above the law's own
// p-quantile is exactly 1−p, at depths where float64 CDF arithmetic
// would have saturated without the survival-domain evaluation.
func TestLawTailAgainstTheory(t *testing.T) {
	node := tech.N22
	law := defaultLaw(node, 0.55)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.9999, 1 - 1e-7, 1 - 1e-10} {
		x := law.ChipQuantile(p)
		tail := law.ChipTail(x)
		want := 1 - p
		if math.Abs(tail-want) > 1e-3*want {
			t.Errorf("ChipTail(ChipQuantile(%v)) = %.6g, want %.6g", p, tail, want)
		}
	}
}

// TestLawCDFShape checks the structural distribution-function
// properties: monotone CDFs, the max-ordering F_chip ≤ F_lane ≤ F_path
// (more iid paths can only slow the max down), CDF/Survival
// complementarity, and quantile/CDF round-tripping.
func TestLawCDFShape(t *testing.T) {
	node := tech.N32
	law := defaultLaw(node, 0.50)
	med := law.ChipQuantile(0.5)
	prevPath, prevChip := -1.0, -1.0
	for i := 0; i <= 40; i++ {
		x := med * (0.5 + float64(i)*0.05)
		fp, fl, fc := law.PathCDF(x), law.LaneCDF(x), law.ChipCDF(x)
		for _, f := range []float64{fp, fl, fc} {
			if f < 0 || f > 1 || math.IsNaN(f) {
				t.Fatalf("CDF out of range at %g: %v/%v/%v", x, fp, fl, fc)
			}
		}
		if fc > fl+1e-12 || fl > fp+1e-12 {
			t.Fatalf("max ordering violated at %g: chip %v > lane %v > path %v", x, fc, fl, fp)
		}
		if s := law.PathSurvival(x); math.Abs(s+fp-1) > 1e-9 {
			t.Fatalf("survival + CDF = %v at %g", s+fp, x)
		}
		if fp < prevPath-1e-12 || fc < prevChip-1e-12 {
			t.Fatalf("CDF not monotone at %g", x)
		}
		prevPath, prevChip = fp, fc
	}
	for _, p := range []float64{0.01, 0.5, 0.99} {
		x := law.ChipQuantile(p)
		if got := law.ChipCDF(x); math.Abs(got-p) > 1e-6 {
			t.Errorf("ChipCDF(ChipQuantile(%v)) = %v", p, got)
		}
		if lq := law.LaneQuantile(p); lq > x+1e-15 {
			t.Errorf("lane quantile %v above chip quantile %v at p=%v", lq, x, p)
		}
	}
	if law.ChipQuantile(-0.5) != law.ChipQuantile(0) || law.ChipQuantile(1.5) != law.ChipQuantile(1) {
		t.Error("out-of-range p not clamped to the bracket")
	}
}

// TestLawPathMomentsAgainstChainMoments cross-checks the mixture's
// exact moments against device.ChainMoments — two independent
// integration routes (conditional quadrature here, log-normal closed
// forms plus a different quadrature there) to the same unconditional
// chain law.
func TestLawPathMomentsAgainstChainMoments(t *testing.T) {
	for _, node := range tech.Nodes() {
		for _, vdd := range lawGridVdds {
			law := defaultLaw(node, vdd)
			m := law.PathMoments()
			mean, variance := device.ChainMoments(node.Dev, node.Var, vdd, tech.ChainLength)
			if rel := math.Abs(m.Mu-mean) / mean; rel > 1e-3 {
				t.Errorf("%s @%.2fV: mixture mean %.8g vs ChainMoments %.8g", node.Name, vdd, m.Mu, mean)
			}
			if rel := math.Abs(m.Sigma-math.Sqrt(variance)) / math.Sqrt(variance); rel > 5e-3 {
				t.Errorf("%s @%.2fV: mixture sd %.8g vs ChainMoments %.8g",
					node.Name, vdd, m.Sigma, math.Sqrt(variance))
			}
		}
	}
}

// TestLawDegenerateD2D: with both die-level axes off the mixture
// collapses to a single conditional Gaussian; the chip p99 must then
// match the closed-form N-th-root-of-p Gaussian quantile exactly.
func TestLawDegenerateD2D(t *testing.T) {
	node := tech.N45
	v := node.Var
	v.SigmaVthD2D, v.SigmaMulD2D = 0, 0
	law := ssta.NewLaw(node.Dev, v, 0.55, tech.ChainLength, 100, 128)
	m, vr := device.ChainConditionalMoments(node.Dev, v, 0.55, tech.ChainLength, 0)
	want := stats.Normal{Mu: m, Sigma: math.Sqrt(vr)}.Quantile(math.Pow(0.99, 1.0/12800))
	got := law.ChipQuantile(0.99)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("degenerate chip p99 %.12g, want closed-form %.12g", got, want)
	}
}
