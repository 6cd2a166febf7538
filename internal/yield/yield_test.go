package yield

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func testCurve(t *testing.T, spares int) *Curve {
	t.Helper()
	dp := simd.New(tech.N90)
	c, err := NewCurve(context.Background(), dp, 1, 2000, 0.55, spares)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestYieldMonotone(t *testing.T) {
	c := testCurve(t, 0)
	prev := -1.0
	lo, hi := c.ClockAt(0.001), c.ClockAt(1)
	for i := 0; i <= 20; i++ {
		tclk := lo + (hi-lo)*float64(i)/20
		y := c.At(tclk)
		if y < prev {
			t.Fatalf("yield not monotone at %v", tclk)
		}
		prev = y
	}
	if c.At(0) != 0 {
		t.Error("zero-period yield should be 0")
	}
	if c.At(hi*2) != 1 {
		t.Error("huge-period yield should be 1")
	}
}

func TestClockAtInvertsAt(t *testing.T) {
	c := testCurve(t, 0)
	for _, y := range []float64{0.5, 0.9, 0.99} {
		tclk := c.ClockAt(y)
		got := c.At(tclk)
		if got < y-1e-9 {
			t.Errorf("At(ClockAt(%v)) = %v < %v", y, got, y)
		}
		// Minimality: slightly shorter clock yields less.
		if c.At(tclk*0.999) >= got {
			t.Errorf("ClockAt(%v) not minimal", y)
		}
	}
}

func TestClockAtEdges(t *testing.T) {
	c := testCurve(t, 0)
	if c.ClockAt(0) != c.ClockAt(0.0001) && c.ClockAt(0) > c.ClockAt(1) {
		t.Error("edge quantiles inverted")
	}
	if c.ClockAt(1) < c.ClockAt(0.99) {
		t.Error("full-yield clock must be the slowest chip")
	}
}

func TestSparesImproveYield(t *testing.T) {
	base := testCurve(t, 0)
	rep := testCurve(t, 8)
	tclk := base.ClockAt(0.90)
	if rep.At(tclk) <= base.At(tclk) {
		t.Errorf("8 spares should raise yield at Tclk=%v: %v vs %v",
			tclk, rep.At(tclk), base.At(tclk))
	}
	if rep.ClockAt(0.99) >= base.ClockAt(0.99) {
		t.Error("8 spares should shorten the 99%-yield clock")
	}
}

func TestCompareGrid(t *testing.T) {
	base := testCurve(t, 0)
	rep := testCurve(t, 8)
	pts := Compare(base, rep, 11)
	if len(pts) != 11 {
		t.Fatalf("grid = %d", len(pts))
	}
	for i, p := range pts {
		if p.YieldWith < p.Yield-0.02 {
			t.Errorf("mitigated yield below base at point %d: %+v", i, p)
		}
		if i > 0 && p.TClk <= pts[i-1].TClk {
			t.Error("grid not increasing")
		}
	}
	// Endpoints: yields approach 0 and 1.
	if pts[0].Yield > 0.05 || pts[len(pts)-1].Yield < 0.95 {
		t.Errorf("grid endpoints wrong: %+v … %+v", pts[0], pts[len(pts)-1])
	}
}

func TestCurveString(t *testing.T) {
	c := testCurve(t, 2)
	if c.String() == "" || c.N() != 2000 {
		t.Error("metadata wrong")
	}
}

func TestPaper99PointConsistency(t *testing.T) {
	// ClockAt(0.99) must agree with the simd p99 (same seed/config).
	dp := simd.New(tech.N90)
	c, err := NewCurve(context.Background(), dp, 7, 3000, 0.55, 0)
	if err != nil {
		t.Fatal(err)
	}
	p99FO4, err := dp.P99ChipDelayFO4Ctx(context.Background(), 7, 3000, 0.55, 0)
	if err != nil {
		t.Fatal(err)
	}
	p99 := p99FO4 * dp.FO4(0.55)
	if math.Abs(c.ClockAt(0.99)-p99)/p99 > 0.01 {
		t.Errorf("yield-99%% clock %v vs p99 %v", c.ClockAt(0.99), p99)
	}
}

// TestNewCurveCancelled: a cancelled ctx stops the chip sampling with
// context.Canceled instead of a curve.
func TestNewCurveCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c, err := NewCurve(ctx, simd.New(tech.N90), 1, 2000, 0.55, 0); !errors.Is(err, context.Canceled) || c != nil {
		t.Errorf("NewCurve on a cancelled ctx = (%v, %v), want (nil, context.Canceled)", c, err)
	}
}
