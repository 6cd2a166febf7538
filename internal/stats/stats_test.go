package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic sample is 32/7.
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of singleton should be NaN")
	}
	lo, hi := MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("MinMax(nil) should be NaN, NaN")
	}
}

func TestThreeSigmaOverMu(t *testing.T) {
	// Constant sample: zero variance.
	xs := []float64{3, 3, 3, 3}
	if got := ThreeSigmaOverMu(xs); got != 0 {
		t.Errorf("3σ/μ of constant = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[4] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.NormFloat64()*2 + 10
	}
	s := Summarize(xs)
	if !almostEqual(s.Mean, 10, 0.1) {
		t.Errorf("mean = %v, want ≈10", s.Mean)
	}
	if !almostEqual(s.StdDev, 2, 0.1) {
		t.Errorf("sd = %v, want ≈2", s.StdDev)
	}
	// p99 of Normal(10,2) is 10 + 2.326·2 ≈ 14.65.
	if !almostEqual(s.P99, 14.65, 0.3) {
		t.Errorf("p99 = %v, want ≈14.65", s.P99)
	}
	if s.Min > s.P50 || s.P50 > s.P99 || s.P99 > s.Max {
		t.Error("summary ordering violated")
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestQuantileSortedMonotoneProperty(t *testing.T) {
	// Property: quantile is monotone in p for any sample.
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Interpolation between order statistics of opposite sign
			// near ±MaxFloat64 overflows; physical samples (delays in
			// seconds) are far inside this bound.
			if !math.IsNaN(x) && math.Abs(x) < 1e300 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := Quantile(xs, p)
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryOfEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.P99) {
		t.Errorf("Summarize(nil) = %+v, want NaN fields", s)
	}
}

func TestQuantileCICoverage(t *testing.T) {
	// Empirical check: the 95% CI for the 0.99 quantile of a known
	// normal must contain the true quantile in ≈95% of repetitions.
	r := rand.New(rand.NewPCG(21, 22))
	truth := Normal{Mu: 0, Sigma: 1}.Quantile(0.99)
	const reps = 300
	const n = 2000
	covered := 0
	for rep := 0; rep < reps; rep++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		sort.Float64s(xs)
		lo, hi := QuantileCI(xs, 0.99, 0.95)
		if lo <= truth && truth <= hi {
			covered++
		}
	}
	rate := float64(covered) / reps
	if rate < 0.90 || rate > 1.0 {
		t.Errorf("CI coverage %v, want ≈0.95", rate)
	}
}

func TestQuantileCIOrdering(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	lo, hi := QuantileCI(xs, 0.99, 0.95)
	point := QuantileSorted(xs, 0.99)
	if !(lo <= point && point <= hi) {
		t.Errorf("CI [%v, %v] should bracket point estimate %v", lo, hi, point)
	}
	if lo2, hi2 := QuantileCI(xs, 0.99, 0.99); lo2 > lo || hi2 < hi {
		t.Error("higher confidence must widen the interval")
	}
}

func TestQuantileCIDegenerate(t *testing.T) {
	if lo, _ := QuantileCI(nil, 0.5, 0.95); !math.IsNaN(lo) {
		t.Error("empty sample should give NaN")
	}
	lo, hi := QuantileCI([]float64{7}, 0.5, 0.95)
	if lo != 7 || hi != 7 {
		t.Error("singleton CI should collapse")
	}
}

// sameValue reports whether two quantiles agree bit for bit, counting
// two zeros as one value (sort.Float64s leaves the order of a ±0 tie
// unspecified) and two NaNs (an interpolation between infinities) as
// one.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		a == 0 && b == 0 || math.IsNaN(a) && math.IsNaN(b)
}

// TestSelectMatchesSort checks the selection against a full sort on
// random, duplicate-heavy, sorted and reversed inputs at every rank,
// and that it leaves a[:k] ≤ a[k] ≤ a[k+1:].
func TestSelectMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%40
		a := make([]float64, n)
		for i := range a {
			switch trial % 4 {
			case 0:
				a[i] = r.Float64()
			case 1:
				a[i] = float64(r.Uint64() % 3) // heavy duplicates
			case 2:
				a[i] = float64(i)
			default:
				a[i] = float64(n - i)
			}
		}
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		for k := range a {
			work := append([]float64(nil), a...)
			got := Select(work, k)
			if math.Float64bits(got) != math.Float64bits(sorted[k]) {
				t.Fatalf("trial %d (%v) k=%d: %v, want %v", trial, a, k, got, sorted[k])
			}
			for i, x := range work {
				if i < k && x > got || i > k && x < got {
					t.Fatalf("trial %d k=%d: a[%d] = %v on the wrong side of %v", trial, k, i, x, got)
				}
			}
		}
	}
}

// checkQuantileForms holds Quantile and QuantileInPlace to a full sort
// and QuantileSorted on xs at level p, and Quantile to leaving xs alone.
func checkQuantileForms(t *testing.T, xs []float64, p float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	want := QuantileSorted(sorted, p)
	before := append([]float64(nil), xs...)
	if got := Quantile(xs, p); !sameValue(got, want) {
		t.Errorf("Quantile(%v, %v) = %v, sort gives %v", xs, p, got, want)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
			t.Fatalf("Quantile(%v, %v) reordered its input", before, p)
		}
	}
	if got := QuantileInPlace(append([]float64(nil), xs...), p); !sameValue(got, want) {
		t.Errorf("QuantileInPlace(%v, %v) = %v, sort gives %v", xs, p, got, want)
	}
}

// TestQuantileMatchesSort: the selecting quantiles return the sorted
// type-7 quantile on ties, infinities and one- and two-value samples, at
// both ends, a sub-normal level, the median, the paper's 99 % point and
// a level whose rank h = p·(n−1) is an integer.
func TestQuantileMatchesSort(t *testing.T) {
	inf := math.Inf(1)
	r := rand.New(rand.NewPCG(7, 8))
	random := make([]float64, 1000)
	for i := range random {
		random[i] = r.NormFloat64()
	}
	ties := make([]float64, 1000)
	for i := range ties {
		ties[i] = float64(r.IntN(5))
	}
	for _, c := range []struct {
		name string
		xs   []float64
	}{
		{"one", []float64{3}},
		{"two", []float64{4, -1}},
		{"two equal", []float64{2, 2}},
		{"ties", []float64{1, 3, 3, 3, 2, 3, 1, 3}},
		{"signed zeros", []float64{0, math.Copysign(0, -1), 1, -1}},
		{"infinities", []float64{inf, 1, -inf, 2, inf, 0.5}},
		{"all +Inf", []float64{inf, inf, inf}},
		{"random", random},
		{"random ties", ties},
	} {
		t.Run(c.name, func(t *testing.T) {
			ps := []float64{0, 1e-300, 0.5, 0.99, 1}
			if n := len(c.xs); n > 1 {
				ps = append(ps, float64(n/2)/float64(n-1))
			}
			for _, p := range ps {
				checkQuantileForms(t, c.xs, p)
			}
		})
	}
}

// FuzzQuantile holds the selecting quantiles to sort + QuantileSorted on
// arbitrary NaN-free samples. A leading even byte reads the rest as
// small signed values (dense ties, both zeros); otherwise each 8 bytes
// are one float64's bits.
func FuzzQuantile(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 255, 0, 128}, 0.99)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff}, 0.5)
	f.Add([]byte{2, 7}, 0.0)
	f.Add([]byte{4, 3, 3, 3, 3, 9}, 0.25)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		if math.IsNaN(p) || len(data) == 0 {
			return
		}
		var xs []float64
		if data[0]%2 == 0 {
			for _, b := range data[1:] {
				xs = append(xs, float64(int8(b))/4)
			}
		} else {
			for b := data[1:]; len(b) >= 8; b = b[8:] {
				x := math.Float64frombits(binary.LittleEndian.Uint64(b))
				if !math.IsNaN(x) {
					xs = append(xs, x)
				}
			}
		}
		checkQuantileForms(t, xs, p)
	})
}

// BenchmarkQuantile reads the 99 % point of 10 000 values, the size of
// a p99chipclock sample, by selection and by the full sort it replaced.
func BenchmarkQuantile(b *testing.B) {
	r := rand.New(rand.NewPCG(9, 10))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	work := make([]float64, len(xs))
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, xs)
			benchSink = QuantileInPlace(work, 0.99)
		}
	})
	b.Run("sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, xs)
			sort.Float64s(work)
			benchSink = QuantileSorted(work, 0.99)
		}
	})
}

var benchSink float64
