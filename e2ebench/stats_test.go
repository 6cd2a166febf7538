package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{3.1, 0.2, 9.7, 4.4, 5.0, 2.2, 8.8}, 2.2, 4.4, 8.8},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct {
		n       int
		p, want float64
		beyond  int
	}{
		{100, 50, 50, 50},
		{100, 90, 90, 10},
		{100, 99, 99, 1},
		{10, 90, 9, 1}, // too few beyond to trust
		{10, 50, 5, 5},
		{1, 90, 1, 0},
	} {
		sample := xs[100-tc.n:] // the values 1..n
		if got := percentile(sample, tc.p); got != tc.want {
			t.Errorf("p%g of 1..%d = %g, want %g", tc.p, tc.n, got, tc.want)
		}
		if got := beyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}
