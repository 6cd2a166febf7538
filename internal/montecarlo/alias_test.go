package montecarlo

import (
	"context"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
)

// SampleFlatCtx hands fn a view of its own row of one flat slab (see
// the package comment). This test pins the load-bearing consequence of
// that layout so the aliasing contract can't regress silently.

func fillIndex(r *rng.Stream, dst []float64) {
	for i := range dst {
		dst[i] = float64(i)
	}
}

// TestSampleVecAppendCannotClobber proves the capacity of fn's dst is
// pinned to the row width: an append inside fn reallocates instead of
// writing into the next row's slab region.
func TestSampleVecAppendCannotClobber(t *testing.T) {
	const n, width = 8, 4
	slab, err := SampleFlatCtx(context.Background(), 1, n, width, func(r *rng.Stream, dst []float64) {
		if c := cap(dst); c != width {
			t.Errorf("dst capacity = %d, want %d (full-cap slice expression)", c, width)
		}
		fillIndex(r, dst)
		grown := append(dst, 99, 99)
		_ = grown
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range slab {
		if want := float64(i % width); v != want {
			t.Fatalf("append inside fn clobbered slab[%d] = %v, want %v", i, v, want)
		}
	}
}
