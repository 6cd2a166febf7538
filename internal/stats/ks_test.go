package stats

import (
	"math/rand/v2"
	"testing"
)

func TestKSStatisticIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if d := KSStatistic(xs, xs); d != 0 {
		t.Errorf("KS of identical samples = %v", d)
	}
}

func TestKSStatisticDisjoint(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{10, 11, 12}
	if d := KSStatistic(xs, ys); d != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSSameDistributionBelowCritical(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	n := 3000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ys[i] = r.NormFloat64()
	}
	d := KSStatistic(xs, ys)
	if crit := KSCritical(n, n, 0.01); d > crit {
		t.Errorf("same-distribution KS %v above critical %v", d, crit)
	}
}

func TestKSDifferentDistributionAboveCritical(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	n := 3000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ys[i] = r.NormFloat64() + 0.5
	}
	d := KSStatistic(xs, ys)
	if crit := KSCritical(n, n, 0.01); d < crit {
		t.Errorf("shifted-distribution KS %v below critical %v", d, crit)
	}
}
