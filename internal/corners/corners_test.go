package corners

import (
	"context"
	"sort"
	"testing"

	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/stats"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func TestCornerOrdering(t *testing.T) {
	for _, node := range tech.Nodes() {
		for _, vdd := range []float64{0.5, 0.7, node.VddNominal} {
			ss := ChainDelay(node, SS, vdd, tech.ChainLength)
			tt := ChainDelay(node, TT, vdd, tech.ChainLength)
			ff := ChainDelay(node, FF, vdd, tech.ChainLength)
			if !(ss > tt && tt > ff) {
				t.Errorf("%s @%gV: corner ordering violated: SS %v, TT %v, FF %v",
					node.Name, vdd, ss, tt, ff)
			}
		}
	}
}

func TestCornerSpreadGrowsAtLowVdd(t *testing.T) {
	node := tech.N90
	spread := func(vdd float64) float64 {
		return ChainDelay(node, SS, vdd, 50) / ChainDelay(node, FF, vdd, 50)
	}
	if spread(0.5) <= spread(1.0) {
		t.Errorf("SS/FF spread should widen near threshold: %v vs %v", spread(0.5), spread(1.0))
	}
}

func TestOCVDerateAboveOne(t *testing.T) {
	for _, node := range tech.Nodes() {
		d := OCVDerate(node, 0.55, 50, 3)
		if d <= 1 || d > 1.5 {
			t.Errorf("%s: derate %v outside (1, 1.5]", node.Name, d)
		}
	}
}

// TestSignoffCoversStatistical: the SS corner with a path-count-aware
// OCV derate bounds the Monte-Carlo 99 % chip delay wherever the path
// law is near-Gaussian (90 nm everywhere; 22 nm at nominal voltage).
// At 22 nm deep in the near-threshold region the path law is strongly
// right-skewed and the Gaussian-z derate under-covers the extreme tail
// by a percent — the same skew effect that defeats Gaussian SSTA
// (internal/ssta) and another argument for Monte-Carlo signoff of NTV
// parts. The test pins both behaviours.
func TestSignoffCoversStatistical(t *testing.T) {
	p99Of := func(dp *simd.Datapath, vdd float64) float64 {
		ds, err := dp.ChipDelaysCtx(context.Background(), 1, 3000, vdd, 0)
		if err != nil {
			t.Fatal(err)
		}
		sort.Float64s(ds)
		return stats.QuantileSorted(ds, 0.99)
	}
	dp90 := simd.New(tech.N90)
	for _, vdd := range []float64{0.55, tech.N90.VddNominal} {
		s := ChipSignoff(tech.N90, vdd, dp90.Lanes*dp90.PathsPerLane)
		if p99 := p99Of(dp90, vdd); s.DelaySS < p99 {
			t.Errorf("90nm @%gV: signoff %v below statistical p99 %v", vdd, s.DelaySS, p99)
		}
	}
	dp22 := simd.New(tech.N22)
	sNom := ChipSignoff(tech.N22, tech.N22.VddNominal, dp22.Lanes*dp22.PathsPerLane)
	if p99 := p99Of(dp22, tech.N22.VddNominal); sNom.DelaySS < p99 {
		t.Errorf("22nm @nominal: signoff %v below statistical p99 %v", sNom.DelaySS, p99)
	}
	sNTV := ChipSignoff(tech.N22, 0.55, dp22.Lanes*dp22.PathsPerLane)
	p99 := p99Of(dp22, 0.55)
	if gap := (p99 - sNTV.DelaySS) / p99; gap > 0.03 {
		t.Errorf("22nm @0.55V: skew under-coverage %.3f beyond documented bound", gap)
	}
}

// TestOverMarginGrowsNearThreshold is the extension's finding: the
// corner flow's surplus margin over the statistical 99 % point grows as
// the supply approaches threshold, because the exponential V_th
// sensitivity prices the fixed ±3σ corner ever more steeply.
func TestOverMarginGrowsNearThreshold(t *testing.T) {
	node := tech.N90
	dp := simd.New(node)
	over := func(vdd float64) float64 {
		s := ChipSignoff(node, vdd, dp.Lanes*dp.PathsPerLane)
		ds, err := dp.ChipDelaysCtx(context.Background(), 2, 3000, vdd, 0)
		if err != nil {
			t.Fatal(err)
		}
		sort.Float64s(ds)
		return OverMarginPct(s, stats.QuantileSorted(ds, 0.99))
	}
	oLow, oHigh := over(0.5), over(1.0)
	if oLow <= oHigh {
		t.Errorf("over-margin at 0.5V (%v%%) should exceed 1.0V (%v%%)", oLow, oHigh)
	}
	if oLow <= 0 || oHigh <= 0 {
		t.Errorf("over-margins must be positive: %v, %v", oLow, oHigh)
	}
}

func TestSignoffString(t *testing.T) {
	if ChipSignoff(tech.N90, 0.6, 12800).String() == "" {
		t.Error("empty signoff render")
	}
}

func TestOCVSigma(t *testing.T) {
	// One path: plain 99 % z-score ≈ 2.33.
	if k := OCVSigma(1); k < 2.31 || k > 2.35 {
		t.Errorf("OCVSigma(1) = %v, want ≈2.33", k)
	}
	// The paper's machine: ≈4.8σ.
	if k := OCVSigma(12800); k < 4.5 || k > 5.1 {
		t.Errorf("OCVSigma(12800) = %v, want ≈4.8", k)
	}
	if OCVSigma(0) != OCVSigma(1) {
		t.Error("degenerate path count mishandled")
	}
	if OCVSigma(100) <= OCVSigma(10) {
		t.Error("OCV sigma must grow with path count")
	}
}
