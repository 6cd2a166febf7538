package variation

import (
	"context"
	"testing"

	"github.com/ntvsim/ntvsim/internal/tech"
)

// BenchmarkChainThreeSigma estimates 3σ/μ from 250 fresh-die chains at
// 0.55 V on the 90 nm node: at the paper's 50-gate length, and at
// Figure 11's eight lengths read from one 200-gate chain per sample.
func BenchmarkChainThreeSigma(b *testing.B) {
	s := NewSampler(tech.N90.Dev, tech.N90.Var)
	for _, bc := range []struct {
		name    string
		lengths []int
	}{
		{"50gates", []int{tech.ChainLength}},
		{"fig11", []int{1, 2, 5, 10, 20, 50, 100, 200}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.ChainThreeSigmaCtx(context.Background(), uint64(i), 250, 0.55, bc.lengths...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
