package ssta

import (
	"testing"

	"github.com/ntvsim/ntvsim/internal/tech"
)

// Benchmark results land in these sinks so the measured calls stay.
var (
	quantileSink float64
	lawSink      *Law
)

// BenchmarkChipQuantile solves the chip quantiles the sweep kernels
// ask for: the paper's p99 (p99chipclock) and the Φ(6) target of the
// 6σ tail yield (tailyield), on one law at 0.55 V.
func BenchmarkChipQuantile(b *testing.B) {
	law := NewLaw(tech.N90.Dev, tech.N90.Var, 0.55, tech.ChainLength, testPaths, testLanes)
	for _, bc := range []struct {
		name string
		p    float64
	}{{"p99", 0.99}, {"phi6", stdNormal.CDF(6)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				quantileSink = law.ChipQuantile(bc.p)
			}
		})
	}
}

// BenchmarkNewLaw builds the canonical chip law from its device
// moments, without the sampling table: the work a law-memo miss costs
// a closed-form kernel.
func BenchmarkNewLaw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lawSink = NewLaw(tech.N90.Dev, tech.N90.Var, 0.55, tech.ChainLength, testPaths, testLanes)
	}
}
