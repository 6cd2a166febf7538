package montecarlo

import (
	"context"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
)

// The pinned values below were captured from the pre-optimization kernel
// (one rng.NewSub heap allocation per sample, one row allocation per
// vector sample). The zero-allocation kernel must reproduce them
// bit-for-bit: every committed artifact is a deterministic function of
// these sequences, so any drift here means the artifacts would silently
// change too.

func TestSampleGolden(t *testing.T) {
	want := []float64{
		0.7289812605984479, 1.4675116062836873, -0.8831826850986838,
		0.46934569409219706, -0.37160135843786746, -0.019417523214940058,
		1.0565501661912524, -0.06600304155390474,
	}
	got := sample(t, 20120603, len(want), func(r *rng.Stream) float64 { return r.Norm() })
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SampleCtx[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSampleVecGolden pins the vector path, SampleFlatCtx: sample i's
// row sits at slab[i*width : (i+1)*width].
func TestSampleVecGolden(t *testing.T) {
	want := [][]float64{
		{0.66775489980339, 0.002123553105060849, 0.01513029060802562},
		{0.8939693797965126, 0.49852690311598535, 0.04360808574781705},
		{0.42629050660337353, 0.8797378787701999, 0.30760181365642025},
		{0.0317860838143158, 0.1955941236785378, 0.4476637054171271},
	}
	const width = 3
	got, err := SampleFlatCtx(context.Background(), 77, len(want), width, func(r *rng.Stream, dst []float64) {
		for i := range dst {
			dst[i] = r.Float64()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)*width {
		t.Fatalf("slab length = %d, want %d", len(got), len(want)*width)
	}
	for i := range want {
		for j := range want[i] {
			if v := got[i*width+j]; v != want[i][j] {
				t.Errorf("SampleFlatCtx[%d*%d+%d] = %v, want %v", i, width, j, v, want[i][j])
			}
		}
	}
}
