package sparing

import (
	"context"
	"testing"

	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// searchSink keeps the benchmarked search's result live.
var searchSink SearchResult

// BenchmarkMinSpares draws 1000 chips at 45 nm and 0.60 V with room
// for 128 spares and runs one spare search over them, which bisects
// between two ladder points: the unit of work of table1, fig5, fig7 and
// ablation.
func BenchmarkMinSpares(b *testing.B) {
	dp := simd.New(tech.N45)
	ctx := context.Background()
	target, err := dp.P99ChipDelayFO4Ctx(ctx, 1, 1000, dp.Node.VddNominal, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample, err := dp.SpareSampleCtx(ctx, 2, 1000, 0.60, 128)
		if err != nil {
			b.Fatal(err)
		}
		searchSink = MinSpares(sample, target)
	}
}
