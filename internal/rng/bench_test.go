package rng

import "testing"

// BenchmarkNewSub measures the old per-sample derivation cost: one heap
// stream per index, as the Monte-Carlo loops used before in-place Reset.
func BenchmarkNewSub(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += NewSub(20120603, i).Norm()
	}
	_ = sink
}

// BenchmarkReset measures the in-place derivation used by the hot loop:
// one stream reused across all indices, zero allocations.
func BenchmarkReset(b *testing.B) {
	b.ReportAllocs()
	var s Stream
	var sink float64
	for i := 0; i < b.N; i++ {
		s.Reset(20120603, i)
		sink += s.Norm()
	}
	_ = sink
}

// BenchmarkStreamFloat64 measures one uniform draw, the chip draw's
// inner step (one per lane).
func BenchmarkStreamFloat64(b *testing.B) {
	s := NewSub(20120603, 0)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}

// BenchmarkStreamNorm measures one standard-normal draw, the gate-level
// samplers' and the importance sampler's inner step.
func BenchmarkStreamNorm(b *testing.B) {
	s := NewSub(20120603, 0)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Norm()
	}
	_ = sink
}
