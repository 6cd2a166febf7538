package rng

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The Stream reimplements math/rand/v2's PCG-DXSM step, its Float64
// scaling and its NormFloat64 ziggurat. Every committed artifact is a
// function of those draws, so the tests below hold the Stream to
// math/rand/v2 itself, draw for draw: integers by value, floats by
// Float64bits.

// refSub returns math/rand/v2's generator seeded as Reset(seed, idx)
// seeds a Stream: PCG (hi, lo) from the SplitMix64 lattice point.
func refSub(seed uint64, idx int) *rand.Rand {
	lo := mix(seed + uint64(idx)*0x9e3779b97f4a7c15)
	return rand.New(rand.NewPCG(lo, mix(lo^0xbf58476d1ce4e5b9)))
}

// streamOps is the number of operations compareOps distinguishes; an
// op byte selects op%streamOps and its high bits parameterize it.
const streamOps = 8

// compareOps applies ops to the stream and the reference generator in
// lockstep and reports the first draw on which they differ. A Split op
// moves both sides to their children, so later ops check the child.
func compareOps(t *testing.T, s *Stream, ref *rand.Rand, ops []byte) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k, op := range ops {
		arg := int(op/streamOps) + 1 // 1..32
		switch op % streamOps {
		case 0:
			if a, b := s.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("op %d Uint64: %#x, math/rand/v2 %#x", k, a, b)
			}
		case 1:
			if a, b := s.Float64(), ref.Float64(); !same(a, b) {
				t.Fatalf("op %d Float64: %v, math/rand/v2 %v", k, a, b)
			}
		case 2:
			if a, b := s.Norm(), ref.NormFloat64(); !same(a, b) {
				t.Fatalf("op %d Norm: %v, math/rand/v2 %v", k, a, b)
			}
		case 3:
			mu, sigma := float64(arg)-16, float64(arg)/8
			if a, b := s.Gauss(mu, sigma), mu+sigma*ref.NormFloat64(); !same(a, b) {
				t.Fatalf("op %d Gauss(%v, %v): %v, math/rand/v2 %v", k, mu, sigma, a, b)
			}
		case 4:
			// Odd bounds take IntN's rejection path; a shifted bound
			// reaches past 32 bits.
			n := arg*arg*7 + 1
			if arg%4 == 0 {
				n <<= 40
			}
			if a, b := s.IntN(n), ref.IntN(n); a != b {
				t.Fatalf("op %d IntN(%d): %d, math/rand/v2 %d", k, n, a, b)
			}
		case 5:
			a, b := s.Perm(arg), ref.Perm(arg)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("op %d Perm(%d): %v, math/rand/v2 %v", k, arg, a, b)
				}
			}
		case 6:
			var a, b [32]int
			for i := range a {
				a[i], b[i] = i, i
			}
			s.Shuffle(arg, func(i, j int) { a[i], a[j] = a[j], a[i] })
			ref.Shuffle(arg, func(i, j int) { b[i], b[j] = b[j], b[i] })
			if a != b {
				t.Fatalf("op %d Shuffle(%d): %v, math/rand/v2 %v", k, arg, a[:arg], b[:arg])
			}
		case 7:
			s, ref = s.Split(arg), refSub(ref.Uint64(), arg)
		}
	}
}

// TestStreamMatchesMathRand: for 50 seeds × 400 sub-stream indices, a
// Reset stream and a fresh NewSub stream each follow math/rand/v2 over
// an interleaving of every draw kind, Split included.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := rand.New(rand.NewPCG(2012, 6))
	ops := make([]byte, 48)
	var s Stream
	for si := 0; si < 50; si++ {
		seed := seeds.Uint64()
		for idx := 0; idx < 400; idx++ {
			for i := range ops {
				ops[i] = byte(seeds.Uint64())
			}
			s.Reset(seed, idx)
			compareOps(t, &s, refSub(seed, idx), ops)
			compareOps(t, NewSub(seed, idx), refSub(seed, idx), ops)
		}
	}
	// New(seed) seeds the PCG as (seed, seed^φ).
	for _, seed := range []uint64{0, 42, ^uint64(0)} {
		compareOps(t, New(seed), rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)), []byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2})
	}
}

// TestStreamCopyContinuesSequence: a Stream is plain data, so a copy
// taken mid-stream continues the original's sequence on its own.
func TestStreamCopyContinuesSequence(t *testing.T) {
	s := NewSub(7, 3)
	s.Norm()
	c := *s
	for i := 0; i < 100; i++ {
		if a, b := s.Uint64(), c.Uint64(); a != b {
			t.Fatalf("draw %d: original %#x, copy %#x", i, a, b)
		}
	}
}

// FuzzStreamMatchesMathRand drives arbitrary (seed, idx, op sequence)
// inputs through compareOps: any sub-stream, under any interleaving of
// draws, must follow math/rand/v2.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(uint64(0), 0, []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(20120603), 999, []byte{2, 2, 2, 2, 10, 18, 26, 255})
	f.Add(^uint64(0), -1, []byte{7, 15, 2, 4, 12, 20, 28, 1})
	f.Fuzz(func(t *testing.T, seed uint64, idx int, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		var s Stream
		s.Reset(seed, idx)
		compareOps(t, &s, refSub(seed, idx), ops)
	})
}
