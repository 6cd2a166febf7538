// Package rng provides deterministic, splittable pseudo-random streams
// for reproducible parallel Monte-Carlo simulation.
//
// Every experiment in the study takes an explicit 64-bit seed. Parallel
// workers each derive an independent sub-stream from (seed, stream index)
// so that results are identical regardless of the number of workers or
// the scheduling order.
//
// # The generator
//
// A Stream is math/rand/v2's PCG-DXSM generator held by value: 128 bits
// of state, stepped with the same constants, so every Uint64, Float64
// and Norm equals what rand.New(rand.NewPCG(…)) seeded the same way
// returns. The hot draws are the Stream's own methods, with no
// rand.Source interface between the caller and the generator, so the
// compiler inlines Uint64 and Float64 into the sampling loops; Norm runs
// math/rand/v2's ziggurat over the same tables (normal.go). The cold
// draws (IntN, Perm, Shuffle) run through rand.New with the Stream as
// its Source. Tests in this package pin the whole stream to math/rand/v2
// draw for draw, and fuzz it.
//
// # Allocation-free reseeding
//
// The Monte-Carlo hot loop derives one sub-stream per sample index —
// millions of derivations per sweep. To keep that loop off the heap, a
// worker holds one Stream and calls Reset(seed, i) before each sample.
// Reset(seed, idx) leaves the Stream in exactly the state NewSub(seed,
// idx) would return, so the two are interchangeable bit-for-bit; golden
// tests in this package and in internal/montecarlo pin that
// equivalence. A Stream is plain data: copying one copies its position,
// and the copy continues the same sequence independently.
package rng

import (
	"math/bits"
	"math/rand/v2"
)

// Stream is a deterministic random stream: the 128-bit PCG-DXSM state
// of math/rand/v2's PCG, with Gaussian sampling, splitting and in-place
// reseeding. The zero value is not ready to use: obtain a Stream from
// New or NewSub, or call Reset on a zero Stream first.
type Stream struct {
	hi, lo uint64
}

// New returns a stream seeded from a single 64-bit seed.
func New(seed uint64) *Stream {
	return &Stream{hi: seed, lo: seed ^ 0x9e3779b97f4a7c15}
}

// NewSub returns the idx-th independent sub-stream of seed. Sub-streams
// with distinct indices are statistically independent for practical
// purposes: the PCG state space is seeded with a SplitMix64-style hash of
// (seed, idx). NewSub(seed, idx) is equivalent to Reset(seed, idx) on a
// fresh Stream.
func NewSub(seed uint64, idx int) *Stream {
	s := new(Stream)
	s.Reset(seed, idx)
	return s
}

// Reset re-derives the stream in place as the idx-th sub-stream of seed,
// with no heap allocation. After Reset the stream is bit-identical to a
// fresh NewSub(seed, idx): the same sequence of Uint64/Float64/Norm/…
// calls yields the same values. Hot loops hold one Stream per worker
// and Reset it per sample index instead of calling NewSub per sample.
func (s *Stream) Reset(seed uint64, idx int) {
	lo := mix(seed + uint64(idx)*0x9e3779b97f4a7c15)
	s.hi, s.lo = lo, mix(lo^0xbf58476d1ce4e5b9)
}

// mix is the SplitMix64 finalizer: a bijective avalanche function used to
// turn structured seeds into well-distributed PCG state.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniform 64-bit value: one step of the 128-bit LCG,
// state = state·mul + inc, and the DXSM output permutation of the new
// state, with math/rand/v2's PCG constants.
func (s *Stream) Uint64() uint64 {
	const (
		mulHi    = 2549297995355413924
		mulLo    = 4865540595714422341
		incHi    = 6364136223846793005
		incLo    = 1442695040888963407
		cheapMul = 0xda942042e4dd58b5
	)
	hi, lo := bits.Mul64(s.lo, mulLo)
	hi += s.hi*mulLo + s.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	s.hi, s.lo = hi, lo

	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// Float64 returns a uniform sample in [0, 1): the low 53 bits of one
// Uint64 scaled by 2⁻⁵³, the value rand.Rand.Float64 computes as
// float64(x<<11>>11) / (1<<53).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()&(1<<53-1)) * 0x1p-53
}

// Gauss returns a Normal(mu, sigma) sample.
func (s *Stream) Gauss(mu, sigma float64) float64 {
	return mu + sigma*s.Norm()
}

// Split returns the idx-th sub-stream of this stream's remaining entropy.
// It consumes one value from the parent stream, so repeated Split calls
// with the same idx yield different children.
func (s *Stream) Split(idx int) *Stream {
	return NewSub(s.Uint64(), idx)
}

// IntN returns a uniform integer in [0, n).
func (s *Stream) IntN(n int) int { return rand.New(s).IntN(n) }

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return rand.New(s).Perm(n) }

// Shuffle randomizes the order of n elements using the provided swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { rand.New(s).Shuffle(n, swap) }
