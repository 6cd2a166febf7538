package margin

import (
	"context"
	"testing"

	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// marginSink keeps the benchmarked search's result live.
var marginSink VoltageResult

// BenchmarkVoltageMargin runs one zero-spare voltage-margin search at
// 45 nm and 0.60 V over 1000 chips per trial point: the unit of work of
// table2, table3 and fig7.
func BenchmarkVoltageMargin(b *testing.B) {
	dp := simd.New(tech.N45)
	ctx := context.Background()
	base, err := dp.P99ChipDelayFO4Ctx(ctx, 1, 1000, dp.Node.VddNominal, 0)
	if err != nil {
		b.Fatal(err)
	}
	target := TargetDelay(dp, 0.60, base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if marginSink, err = VoltageMarginCtx(ctx, dp, 2, 1000, 0.60, target, 0.1e-3, 0); err != nil {
			b.Fatal(err)
		}
	}
}
