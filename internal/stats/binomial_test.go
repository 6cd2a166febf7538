package stats

import (
	"math"
	"testing"
)

func TestBinomialCDF(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		k    int
		want float64
	}{
		{10, 0.5, 10, 1},
		{10, 0.5, -1, 0},
		{4, 0.5, 2, 11.0 / 16},
		{3, 0.1, 0, 0.729},
		{2, 0.3, 1, 0.91},
		{5, 0, 0, 1},
		{5, 1, 4, 0},
		{5, 1, 5, 1},
	}
	for _, c := range cases {
		if got := BinomialCDF(c.n, c.p, c.k); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("BinomialCDF(%d,%v,%d) = %v, want %v", c.n, c.p, c.k, got, c.want)
		}
	}
}

// TestBinomialCDFAgainstDirect checks the log-space iteration against a
// direct summation at small n.
func TestBinomialCDFAgainstDirect(t *testing.T) {
	direct := func(n int, p float64, k int) float64 {
		sum := 0.0
		for i := 0; i <= k && i <= n; i++ {
			c := 1.0
			for j := 0; j < i; j++ {
				c = c * float64(n-j) / float64(j+1)
			}
			sum += c * math.Pow(p, float64(i)) * math.Pow(1-p, float64(n-i))
		}
		return sum
	}
	for _, tc := range []struct {
		n int
		p float64
		k int
	}{{10, 0.3, 0}, {10, 0.3, 3}, {10, 0.3, 10}, {16, 0.01, 2}, {7, 0.9, 5}} {
		got := BinomialCDF(tc.n, tc.p, tc.k)
		want := direct(tc.n, tc.p, tc.k)
		if math.Abs(got-want) > 1e-12*math.Max(got, want) {
			t.Errorf("BinomialCDF(%d, %v, %d) = %v, want %v", tc.n, tc.p, tc.k, got, want)
		}
	}
}
