package importance

import (
	"context"
	"math"
	"runtime"
	"testing"

	"github.com/ntvsim/ntvsim/internal/stats"
)

// identity is the identity pushforward: fn(Φ(Z)) = Z, so sampled values
// are standard normal and every tail probability has a closed form to
// test against.
func identity(u float64) float64 { return stdNormal.Quantile(u) }

// sample runs SampleCtx under context.Background(), which is never
// cancelled, and fails the test on an error.
func sample(t testing.TB, p Params, seed uint64, n int, fn func(u float64) float64) (xs, ws []float64) {
	t.Helper()
	xs, ws, err := SampleCtx(context.Background(), p, seed, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	return xs, ws
}

func TestNormalizedDefaults(t *testing.T) {
	p, err := Params{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if p.Mix != DefaultMix {
		t.Errorf("zero Mix normalized to %v, want DefaultMix=%v", p.Mix, DefaultMix)
	}
	if p, _ := (Params{Mix: 1}).Normalized(); p.Mix != 1 {
		t.Errorf("Mix=1 rewritten to %v", p.Mix)
	}
	for _, bad := range []Params{
		{Mix: -0.1},
		{Mix: 1.5},
		{Mix: math.NaN()},
		{Shift: math.Inf(1)},
		{Shift: math.NaN()},
	} {
		if _, err := bad.Normalized(); err == nil {
			t.Errorf("Normalized(%+v) accepted, want error", bad)
		}
	}
}

// TestNullProposalUnitWeights pins the MC-equivalence corner: with a
// zero shift (or a pure nominal mixture) every likelihood weight is
// exactly 1, so IS degrades to plain MC with no numerical drift.
func TestNullProposalUnitWeights(t *testing.T) {
	for _, p := range []Params{{Shift: 0, Mix: 0.25}, {Shift: 3, Mix: 1}} {
		_, ws, err := SampleCtx(context.Background(), p, 7, 500, identity)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			if w != 1 {
				t.Fatalf("params %+v: w[%d] = %v, want exactly 1", p, i, w)
			}
		}
		if ess := Diagnose(ws).ESS; ess != 500 {
			t.Errorf("params %+v: ESS = %v, want exactly 500", p, ess)
		}
	}
}

// TestWeightBound checks the defensive-mixture guarantee w ≤ 1/mix.
func TestWeightBound(t *testing.T) {
	p := Params{Shift: 4, Mix: 0.25}
	_, ws, err := SampleCtx(context.Background(), p, 11, 5000, identity)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if w <= 0 || w > 1/p.Mix {
			t.Fatalf("w[%d] = %v outside (0, %v]", i, w, 1/p.Mix)
		}
	}
}

// TestTailProbMatchesAnalytic estimates Pr[Z > 3] on the identity
// pushforward and checks the self-normalized estimate against the
// closed form within its own reported standard error.
func TestTailProbMatchesAnalytic(t *testing.T) {
	const n = 20000
	want := 1 - stdNormal.CDF(3)
	xs, ws, err := SampleCtx(context.Background(), Params{Shift: 3}, 13, n, identity)
	if err != nil {
		t.Fatal(err)
	}
	p, se := TailProb(xs, ws, 3)
	if math.Abs(p-want) > 4*se {
		t.Errorf("TailProb = %v ± %v, analytic %v outside 4σ", p, se, want)
	}
	if math.Abs(p-want)/want > 0.1 {
		t.Errorf("TailProb = %v, want %v within 10%%", p, want)
	}
}

// TestISAgreesWithMC is the moderate-σ agreement test from the issue:
// at a 2σ tail both plain MC and IS converge, and their confidence
// intervals must overlap.
func TestISAgreesWithMC(t *testing.T) {
	const (
		n = 20000
		k = 2.0
	)
	mcX, mcW, err := SampleCtx(context.Background(), Params{Mix: 1}, 17, n, identity)
	if err != nil {
		t.Fatal(err)
	}
	isX, isW, err := SampleCtx(context.Background(), Params{Shift: k}, 17, n, identity)
	if err != nil {
		t.Fatal(err)
	}
	pMC, seMC := TailProb(mcX, mcW, k)
	pIS, seIS := TailProb(isX, isW, k)
	if gap := math.Abs(pMC - pIS); gap > 3*(seMC+seIS) {
		t.Errorf("MC %v±%v and IS %v±%v disagree (gap %v)", pMC, seMC, pIS, seIS, gap)
	}
	want := 1 - stdNormal.CDF(k)
	if math.Abs(pIS-want) > 4*seIS {
		t.Errorf("IS %v±%v excludes analytic %v", pIS, seIS, want)
	}
}

// TestVarianceReductionAtHighSigma checks the reason this package
// exists: at a 4σ tail the IS estimator's variance per sample must be
// at least 10× below the binomial variance of plain MC at the same
// budget (the acceptance bar for the committed benchmark entry).
func TestVarianceReductionAtHighSigma(t *testing.T) {
	const (
		n = 30000
		k = 4.0
	)
	pTrue := 1 - stdNormal.CDF(k)
	xs, ws, err := SampleCtx(context.Background(), Params{Shift: k}, 19, n, identity)
	if err != nil {
		t.Fatal(err)
	}
	p, se := TailProb(xs, ws, k)
	if math.Abs(p-pTrue) > 5*se {
		t.Fatalf("IS estimate %v±%v excludes analytic %v", p, se, pTrue)
	}
	mcVar := pTrue * (1 - pTrue) / n
	if reduction := mcVar / (se * se); reduction < 10 {
		t.Errorf("equal-accuracy sample reduction %.1f×, want ≥ 10×", reduction)
	}
}

// TestDeterministicAcrossGOMAXPROCS pins the reproducibility contract:
// the same (params, seed, n) must produce bit-identical values and
// weights on one worker and on many.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	p := Params{Shift: 3, Mix: 0.25}
	const n = 2048
	serial := func() (xs, ws []float64) {
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		xs, ws = sample(t, p, 23, n, identity)
		return xs, ws
	}
	xs1, ws1 := serial()
	xs2, ws2 := sample(t, p, 23, n, identity)
	for i := range xs1 {
		if xs1[i] != xs2[i] || ws1[i] != ws2[i] {
			t.Fatalf("sample %d differs across GOMAXPROCS: (%v,%v) vs (%v,%v)",
				i, xs1[i], ws1[i], xs2[i], ws2[i])
		}
	}
}

func TestDiagnose(t *testing.T) {
	unit := make([]float64, 100)
	for i := range unit {
		unit[i] = 1
	}
	d := Diagnose(unit)
	if d.N != 100 || d.ESS != 100 || d.ESSFrac != 1 || d.MaxW != 1 || d.Degenerate {
		t.Errorf("unit weights: %+v", d)
	}

	// One weight carrying ~all the mass: ESS ≈ 1 out of 100.
	skew := make([]float64, 100)
	for i := range skew {
		skew[i] = 1e-6
	}
	skew[42] = 1000
	d = Diagnose(skew)
	if !d.Degenerate {
		t.Errorf("skewed weights not flagged degenerate: %+v", d)
	}
	if d.MaxW != 1000 {
		t.Errorf("MaxW = %v, want 1000", d.MaxW)
	}
}

// TestDiagnosticsMerge checks the shard-reduction path: merging
// per-shard diagnostics of equal-size shards must reproduce the
// diagnostics of the concatenated population.
func TestDiagnosticsMerge(t *testing.T) {
	xs, ws, err := SampleCtx(context.Background(), Params{Shift: 3}, 29, 4000, identity)
	if err != nil {
		t.Fatal(err)
	}
	_ = xs
	whole := Diagnose(ws)
	var merged Diagnostics
	for lo := 0; lo < len(ws); lo += 1000 {
		merged.Merge(Diagnose(ws[lo : lo+1000]))
	}
	if merged.N != whole.N || merged.MaxW != whole.MaxW {
		t.Fatalf("exact fields differ: %+v vs %+v", merged, whole)
	}
	if math.Abs(merged.ESS-whole.ESS)/whole.ESS > 0.05 {
		t.Errorf("merged ESS %v, whole %v", merged.ESS, whole.ESS)
	}
	if merged.Degenerate != whole.Degenerate {
		t.Errorf("degenerate flag differs: %+v vs %+v", merged, whole)
	}

	var fromZero Diagnostics
	fromZero.Merge(whole)
	if fromZero != whole {
		t.Errorf("merge into zero changed diagnostics: %+v vs %+v", fromZero, whole)
	}
}

// TestMergeAll checks the ledger's sweep-record reduction: nil and
// empty blocks are skipped, inputs are not mutated, and the result
// matches a hand-rolled Merge fold.
func TestMergeAll(t *testing.T) {
	if got := MergeAll(); got != nil {
		t.Errorf("MergeAll() = %+v, want nil", got)
	}
	if got := MergeAll(nil, &Diagnostics{}, nil); got != nil {
		t.Errorf("MergeAll of empties = %+v, want nil", got)
	}

	_, ws, err := SampleCtx(context.Background(), Params{Shift: 3}, 29, 3000, identity)
	if err != nil {
		t.Fatal(err)
	}
	a := Diagnose(ws[:1000])
	b := Diagnose(ws[1000:2000])
	c := Diagnose(ws[2000:])
	aCopy := a
	got := MergeAll(&a, nil, &b, &Diagnostics{}, &c)
	want := a
	want.Merge(b)
	want.Merge(c)
	if got == nil || *got != want {
		t.Errorf("MergeAll = %+v, want %+v", got, want)
	}
	if single := MergeAll(&aCopy); *single != aCopy {
		t.Error("single-input MergeAll changed the block")
	}
	if a != aCopy {
		t.Errorf("MergeAll mutated its first input: %+v vs %+v", a, aCopy)
	}
}

// TestPushforwardMatchesQuantile sanity-checks the probit framing
// itself: the weighted tail mass of the IS sample above the generating
// quantile function's q-point must be 1−q, within 4 standard errors.
func TestPushforwardMatchesQuantile(t *testing.T) {
	dist := stats.Normal{Mu: 5, Sigma: 2}
	fn := func(u float64) float64 { return dist.Quantile(u) }
	xs, ws, err := SampleCtx(context.Background(), Params{Shift: 2}, 31, 20000, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		p, se := TailProb(xs, ws, dist.Quantile(q))
		if math.Abs(p-(1-q)) > 4*se {
			t.Errorf("Pr[X > Q(%g)] = %v ± %v, want %v within 4 standard errors", q, p, se, 1-q)
		}
	}
}
