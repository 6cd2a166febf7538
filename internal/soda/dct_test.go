package soda

import (
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
)

func TestDCT8KernelRunsAndChecks(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 5; trial++ {
		x := make([]int16, Lanes)
		for i := range x {
			x[i] = int16(r.IntN(511) - 255)
		}
		pe := NewPE()
		if err := RunKernel(pe, DCT8Kernel(x)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if pe.Stats.SSNRoutes != dctBlock {
			t.Errorf("DCT should shuffle once per input position: %d routes", pe.Stats.SSNRoutes)
		}
	}
}

// TestDCT8MatchesFloat verifies the fixed-point transform against the
// floating-point DCT-II within quantization tolerance.
func TestDCT8MatchesFloat(t *testing.T) {
	r := rng.New(2)
	x := make([]int16, Lanes)
	for i := range x {
		x[i] = int16(r.IntN(201) - 100)
	}
	pe := NewPE()
	if err := RunKernel(pe, DCT8Kernel(x)); err != nil {
		t.Fatal(err)
	}
	var got [Lanes]uint16
	if err := pe.Mem.ReadRow(dctOut, got[:]); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < dctBlocks; b++ {
		for u := 0; u < dctBlock; u++ {
			var want float64
			s := math.Sqrt(2.0 / dctBlock)
			if u == 0 {
				s = math.Sqrt(1.0 / dctBlock)
			}
			for k := 0; k < dctBlock; k++ {
				want += float64(x[b*dctBlock+k]) * s *
					math.Cos(math.Pi*float64(2*k+1)*float64(u)/(2*dctBlock))
			}
			if d := math.Abs(float64(int16(got[b*dctBlock+u])) - want); d > 6 {
				t.Fatalf("block %d coef %d: got %d, float %v (Δ%v)",
					b, u, int16(got[b*dctBlock+u]), want, d)
			}
		}
	}
}

// TestDCT8DCOnly: a constant block concentrates into the DC coefficient.
func TestDCT8DCOnly(t *testing.T) {
	x := make([]int16, Lanes)
	for i := range x {
		x[i] = 100
	}
	pe := NewPE()
	if err := RunKernel(pe, DCT8Kernel(x)); err != nil {
		t.Fatal(err)
	}
	var got [Lanes]uint16
	if err := pe.Mem.ReadRow(dctOut, got[:]); err != nil {
		t.Fatal(err)
	}
	// DC = 100·8·√(1/8) ≈ 282.8; AC coefficients ≈ 0.
	for b := 0; b < dctBlocks; b++ {
		dc := int16(got[b*dctBlock])
		if dc < 270 || dc > 295 {
			t.Errorf("block %d DC = %d, want ≈283", b, dc)
		}
		for u := 1; u < dctBlock; u++ {
			if ac := int16(got[b*dctBlock+u]); ac < -6 || ac > 6 {
				t.Errorf("block %d AC[%d] = %d, want ≈0", b, u, ac)
			}
		}
	}
}

func TestDCT8InputValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized DCT input accepted")
		}
	}()
	x := make([]int16, Lanes)
	x[0] = 256
	DCT8Kernel(x)
}
