package soda

import (
	"fmt"
	"math"
)

// DCT kernel: 16 independent 8-point DCT-II transforms across the 128
// lanes (lane b·8+u holds output coefficient u of block b) — the
// camera-pipeline transform stage Diet SODA targets. The kernel uses
// the matrix form y[u] = Σ_k C[u][k]·x[k] with Q6 coefficients:
//
//   - one SSN configuration per k broadcasts x[k] of each block to all
//     eight lanes of that block;
//   - a preloaded coefficient row per k supplies C[u][k] to lane u;
//   - products are rescaled (rounded VSRA by 6) before accumulation so
//     every intermediate stays within int16 for 8-bit inputs.

const (
	dctBlock  = 8
	dctBlocks = Lanes / dctBlock
	dctQ      = 6

	dctIn   = 0
	dctOut  = 8
	dctCoef = 100 // 8 rows of coefficients
)

// dctCoeffQ6 returns the Q6 DCT-II matrix entry C[u][k] =
// s(u)·cos(π(2k+1)u/16), s(0)=√(1/8), s(u>0)=√(2/8)·... scaled ×64.
func dctCoeffQ6(u, k int) int16 {
	s := math.Sqrt(2.0 / dctBlock)
	if u == 0 {
		s = math.Sqrt(1.0 / dctBlock)
	}
	c := s * math.Cos(math.Pi*float64(2*k+1)*float64(u)/(2*dctBlock))
	return int16(math.Round(c * (1 << dctQ)))
}

// dctBroadcastConfig builds the SSN configuration that gives every lane
// of each 8-lane block the block's k-th element.
func dctBroadcastConfig(k int) []int {
	cfg := make([]int, Lanes)
	for j := range cfg {
		cfg[j] = j&^(dctBlock-1) | k
	}
	return cfg
}

// DCT8Kernel builds the blocked 8-point DCT of a 128-sample row.
// Inputs are treated as signed 16-bit values and must fit 9 bits
// (±255) so the Q6 products stay within int16.
func DCT8Kernel(x []int16) Kernel {
	if len(x) != Lanes {
		panic("soda: DCT8Kernel needs a 128-sample row")
	}
	for i, v := range x {
		if v < -255 || v > 255 {
			panic(fmt.Sprintf("soda: DCT8Kernel input %d = %d outside ±255", i, v))
		}
	}
	bld := NewBuilder()
	bld.SLi(1, dctIn).VLoad(0, 1). // v0 = x
					SLi(2, 1<<(dctQ-1)).VBcast(7, 2). // v7 = rounding constant 32
					V3(VXOR, 1, 1, 1)                 // v1 = accumulator
	for k := 0; k < dctBlock; k++ {
		bld.VImm(VSHUF, 2, 0, k). // v2 = per-block broadcast of x[k]
						SLi(3, dctCoef+k).VLoad(3, 3). // v3 = C[·][k]
						V3(VMUL, 4, 2, 3).
						V3(VADD, 4, 4, 7). // round
						VImm(VSRA, 4, 4, dctQ).
						V3(VADD, 1, 1, 4)
	}
	bld.SLi(1, dctOut).VStore(1, 1).Halt()

	return Kernel{
		Name:    "dct8x16",
		Program: bld.MustProgram(),
		Setup: func(pe *PE) error {
			row := make([]uint16, Lanes)
			for i, v := range x {
				row[i] = uint16(v)
			}
			if err := pe.Mem.WriteRow(dctIn, row); err != nil {
				return err
			}
			for k := 0; k < dctBlock; k++ {
				var coef [Lanes]uint16
				for j := 0; j < Lanes; j++ {
					coef[j] = uint16(dctCoeffQ6(j%dctBlock, k))
				}
				if err := pe.Mem.WriteRow(dctCoef+k, coef[:]); err != nil {
					return err
				}
				if err := pe.SSN.Store(k, dctBroadcastConfig(k)); err != nil {
					return err
				}
			}
			return nil
		},
		Check: func(pe *PE) error {
			want := dct8Golden(x)
			return expectRow(pe, dctOut, want)
		},
	}
}

// dct8Golden replays the kernel's integer arithmetic exactly.
func dct8Golden(x []int16) []uint16 {
	out := make([]uint16, Lanes)
	for b := 0; b < dctBlocks; b++ {
		for u := 0; u < dctBlock; u++ {
			var acc int16
			for k := 0; k < dctBlock; k++ {
				prod := x[b*dctBlock+k] * dctCoeffQ6(u, k)
				acc += (prod + 1<<(dctQ-1)) >> dctQ
			}
			out[b*dctBlock+u] = uint16(acc)
		}
	}
	return out
}
