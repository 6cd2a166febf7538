package sram

import (
	"testing"

	"github.com/ntvsim/ntvsim/internal/tech"
)

// BenchmarkSRAMBankYield measures the analytic chip-yield quadrature —
// the per-point cost of the kernels' SSTA mode and of the property
// tests pinning analytic-vs-MC agreement.
func BenchmarkSRAMBankYield(b *testing.B) {
	m := New(tech.N32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Yield(OpRead, 0.55)
	}
}

// BenchmarkSRAMTableBuild measures sampler construction: the 257-point
// conditional failure table built once per (node, Vdd, op) and shared
// by every Monte-Carlo chip draw afterwards.
func BenchmarkSRAMTableBuild(b *testing.B) {
	m := New(tech.N32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.NewSampler(OpRead, 0.55)
	}
}

// BenchmarkSRAMChipSample measures the steady-state per-chip draw cost
// the sweep engine pays per Monte-Carlo sample once the table exists.
func BenchmarkSRAMChipSample(b *testing.B) {
	smp := New(tech.N32).NewSampler(OpRead, 0.55)
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 1024
	for i := 0; i < b.N; i += chunk {
		n := chunk
		if rem := b.N - i; rem < n {
			n = rem
		}
		mcSample(b, uint64(i), n, smp.Sample)
	}
}
