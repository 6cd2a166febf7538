package sram

import (
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// The chip draw takes one Log1p per chip and stops each failing-row
// walk at the repair decision. Neither may move a single drawn chip:
// the tests below hold it to the full per-structure draw it replaced.

// binomialDraw inverts a Bin(n, p) law at the uniform u by walking the
// pmf in its recursive form. For p > ½ it draws the complement so the
// walk always starts from the high-mass end of a numerically
// representable pmf(0) = (1−p)^n. It is the full walk binomialExceeds
// stops early.
func binomialDraw(u float64, n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	case p > 0.5:
		return n - binomialDraw(1-u, n, 1-p)
	}
	q := 1 - p
	pmf := math.Pow(q, float64(n))
	cdf := pmf
	k := 0
	for cdf < u && k < n {
		pmf *= float64(n-k) / float64(k+1) * p / q
		k++
		cdf += pmf
	}
	return k
}

// referenceRowFailProb is RowFailProb as it was before: its own
// Log1p(−p) on every call.
func referenceRowFailProb(pCell float64, cols int) float64 {
	switch {
	case pCell <= 0:
		return 0
	case pCell >= 1:
		return 1
	}
	return -math.Expm1(float64(cols) * math.Log1p(-pCell))
}

// referenceSample is the chip draw as it was before: the row law per
// structure, then the full failing-row draw compared with the spares.
func referenceSample(s *ChipSampler, r *rng.Stream) float64 {
	die := r.Gauss(0, s.sigma)
	p := s.cellProb(die)
	for _, st := range s.m.Map {
		if binomialDraw(r.Float64(), st.Rows, referenceRowFailProb(p, st.Cols)) > st.SpareRows {
			return 0
		}
	}
	return 1
}

// TestSampleMatchesReference: Sample equals the reference draw chip by
// chip on every calibrated node, for reads and writes, from 0.35 V to
// 0.80 V in 50 mV steps (the low supplies are where failing rows are
// many and the walks long), × 3 seeds × 2000 chips; chip i uses the
// (seed, i) sub-stream.
func TestSampleMatchesReference(t *testing.T) {
	const chips = 2000
	for _, node := range tech.Nodes() {
		node := node
		t.Run(node.Name, func(t *testing.T) {
			t.Parallel()
			m := New(node)
			for _, op := range []Op{OpRead, OpWrite} {
				for k := 0; k <= 9; k++ {
					vdd := 0.35 + 0.05*float64(k)
					smp := m.NewSampler(op, vdd)
					for _, seed := range []uint64{1, 2, 3} {
						var a, b rng.Stream
						for i := 0; i < chips; i++ {
							a.Reset(seed, i)
							b.Reset(seed, i)
							got, want := smp.Sample(&a), referenceSample(smp, &b)
							if got != want {
								t.Fatalf("%v %.2f V seed %d chip %d: Sample %v, reference %v", op, vdd, seed, i, got, want)
							}
							if a != b {
								t.Fatalf("%v %.2f V seed %d chip %d: Sample left the stream elsewhere than the reference", op, vdd, seed, i)
							}
						}
					}
				}
			}
		})
	}
}

// TestBinomialExceedsMatchesFullWalk: the capped walk answers
// binomialDraw(u, n, p) > m for every n ≤ 64 and every m from −1 to
// n+1, at p on both sides of ½ and at the edges, for uniforms across
// (0, 1), the CDF knots themselves and the edge uniforms 0 and
// Nextafter(1, 0).
func TestBinomialExceedsMatchesFullWalk(t *testing.T) {
	ps := []float64{0, 1e-9, 0.003, 0.2, 0.5, math.Nextafter(0.5, 1), 0.7, 0.995, math.Nextafter(1, 0), 1}
	r := rng.New(11)
	for n := 0; n <= 64; n++ {
		for _, p := range ps {
			us := []float64{0, math.Nextafter(1, 0), 0.5}
			for k := 0; k < 40; k++ {
				us = append(us, r.Float64())
			}
			// The walk's own CDF values, where u sits exactly on a knot.
			if p > 0 && p < 1 {
				q := math.Min(p, 1-p)
				pmf := math.Pow(1-q, float64(n))
				cdf := pmf
				for k := 0; k < n; k++ {
					us = append(us, cdf, math.Nextafter(cdf, 0), 1-cdf)
					pmf *= float64(n-k) / float64(k+1) * q / (1 - q)
					cdf += pmf
				}
			}
			for _, u := range us {
				draw := binomialDraw(u, n, p)
				for m := -1; m <= n+1; m++ {
					if got, want := binomialExceeds(u, n, p, m), draw > m; got != want {
						t.Fatalf("n %d p %v u %v m %d: binomialExceeds %v, full draw %d", n, p, u, m, got, draw)
					}
				}
			}
		}
	}
}

// TestRowFailProbOneLogarithm: the row law with Log1p(−p) taken once
// per chip, and RowFailProb over it, are the reference row law bit for
// bit at every column count the memory map uses and at the edges of p.
func TestRowFailProbOneLogarithm(t *testing.T) {
	ps := []float64{-0.1, 0, 1e-300, 1e-12, 3e-7, 0.01, 0.5, 0.999, 1, 1.5, math.NaN()}
	for _, p := range ps {
		logq := math.Log1p(-p)
		for _, st := range SODAMemoryMap(DefaultSpareRowsPerBank) {
			want := math.Float64bits(referenceRowFailProb(p, st.Cols))
			if got := rowFailProb(p, logq, st.Cols); math.Float64bits(got) != want {
				t.Errorf("p %v cols %d: rowFailProb %v, reference %v", p, st.Cols, got, math.Float64frombits(want))
			}
			if got := RowFailProb(p, st.Cols); math.Float64bits(got) != want {
				t.Errorf("p %v cols %d: RowFailProb %v, reference %v", p, st.Cols, got, math.Float64frombits(want))
			}
		}
	}
}
