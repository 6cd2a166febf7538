package device

import (
	"math"
	"testing"
	"testing/quick"
)

func testParams() Params {
	return Params{Vth0: 0.35, N: 1.3, Kd: 1e-11, DIBL: 0.1, IleakK: 100}
}

func TestValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Vth0: -0.1, N: 1.3, Kd: 1},
		{Vth0: 0.3, N: 0.5, Kd: 1},
		{Vth0: 0.3, N: 1.3, Kd: 0},
		{Vth0: 2.0, N: 1.3, Kd: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestRegionClassification(t *testing.T) {
	p := testParams() // Vth = 0.35
	cases := []struct {
		vdd  float64
		want Region
	}{
		{0.2, SubThreshold},
		{0.34, SubThreshold},
		{0.36, NearThreshold},
		{0.6, NearThreshold},
		{0.66, SuperThreshold},
		{1.0, SuperThreshold},
	}
	for _, c := range cases {
		if got := p.Region(c.vdd); got != c.want {
			t.Errorf("Region(%v) = %v, want %v", c.vdd, got, c.want)
		}
	}
	for _, r := range []Region{SubThreshold, NearThreshold, SuperThreshold, Region(99)} {
		if r.String() == "" {
			t.Error("Region.String empty")
		}
	}
}

func TestDelayMonotoneInVdd(t *testing.T) {
	p := testParams()
	prev := math.Inf(1)
	for v := 0.2; v <= 1.2; v += 0.01 {
		d := p.NominalDelay(v)
		if d >= prev {
			t.Fatalf("delay not decreasing at Vdd=%v", v)
		}
		prev = d
	}
}

func TestDelayMonotoneInVth(t *testing.T) {
	p := testParams()
	prev := 0.0
	for vth := 0.25; vth <= 0.45; vth += 0.005 {
		d := p.Delay(0.5, vth)
		if d <= prev {
			t.Fatalf("delay not increasing in Vth at %v", vth)
		}
		prev = d
	}
}

func TestDelayExplodesNearThreshold(t *testing.T) {
	p := testParams()
	// The defining near-threshold behaviour: delay grows superlinearly
	// as Vdd drops toward Vth. Paper: ≈10× slowdown from nominal to NTV.
	slow := p.NominalDelay(0.5) / p.NominalDelay(1.0)
	if slow < 5 || slow > 50 {
		t.Errorf("NTV slowdown ×%v outside the expected order of magnitude", slow)
	}
}

func TestSensitivityMatchesFiniteDifference(t *testing.T) {
	p := testParams()
	const h = 1e-7
	for _, vdd := range []float64{0.4, 0.5, 0.7, 1.0} {
		for _, vth := range []float64{0.30, 0.35, 0.40} {
			got := p.DelaySensitivityVth(vdd, vth)
			fd := (math.Log(p.Delay(vdd, vth+h)) - math.Log(p.Delay(vdd, vth-h))) / (2 * h)
			if math.Abs(got-fd) > 1e-4*math.Abs(fd)+1e-9 {
				t.Errorf("∂lnτ/∂Vth(%v,%v) = %v, finite diff %v", vdd, vth, got, fd)
			}
		}
	}
}

func TestSensitivityGrowsTowardThreshold(t *testing.T) {
	p := testParams()
	s1 := p.DelaySensitivityVth(1.0, p.Vth0)
	s05 := p.DelaySensitivityVth(0.5, p.Vth0)
	s04 := p.DelaySensitivityVth(0.4, p.Vth0)
	if !(s04 > s05 && s05 > s1) {
		t.Errorf("sensitivity should grow toward threshold: %v, %v, %v", s1, s05, s04)
	}
	if s05/s1 < 2 {
		t.Errorf("near-threshold sensitivity amplification only ×%v", s05/s1)
	}
}

func TestLog1pExpAccuracy(t *testing.T) {
	for _, x := range []float64{-50, -35, -10, -1, 0, 1, 10, 34.9, 35.1, 100} {
		got := log1pExp(x)
		var want float64
		if x > 700 {
			want = x
		} else {
			want = math.Log1p(math.Exp(x))
			if math.IsInf(math.Exp(x), 1) {
				want = x
			}
		}
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("log1pExp(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestOnCurrentLimits(t *testing.T) {
	p := testParams()
	// Strong inversion: I_on ≈ ((Vdd−Vth)/(2nφt))².
	v := 1.2
	x := (v - p.Vth0) / (2 * p.N * PhiT)
	if got := p.OnCurrent(v, p.Vth0); math.Abs(got-x*x)/got > 0.01 {
		t.Errorf("strong-inversion current %v, want ≈%v", got, x*x)
	}
	// Deep subthreshold: exponential in Vdd (equal ratios per step).
	r1 := p.OnCurrent(0.15, p.Vth0) / p.OnCurrent(0.10, p.Vth0)
	r2 := p.OnCurrent(0.20, p.Vth0) / p.OnCurrent(0.15, p.Vth0)
	if math.Abs(r1-r2)/r1 > 0.10 {
		t.Errorf("subthreshold current not exponential: ratios %v vs %v", r1, r2)
	}
}

func TestLeakCurrentGrowsWithVdd(t *testing.T) {
	p := testParams()
	if !(p.LeakCurrent(1.0) > p.LeakCurrent(0.5)) {
		t.Error("DIBL should raise leakage with Vdd")
	}
}

func TestDelayPositiveProperty(t *testing.T) {
	p := testParams()
	f := func(rawV, rawT float64) bool {
		vdd := 0.1 + math.Abs(math.Mod(rawV, 1.3))
		vth := 0.1 + math.Abs(math.Mod(rawT, 0.5))
		d := p.Delay(vdd, vth)
		return d > 0 && !math.IsInf(d, 0) && !math.IsNaN(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
