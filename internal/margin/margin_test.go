package margin

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/ntvsim/ntvsim/internal/power"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// baseline is the nominal-voltage 99 % FO4 chip delay of dp with no
// spares — the reference every technique must match.
func baseline(t *testing.T, dp *simd.Datapath, seed uint64, n int) float64 {
	t.Helper()
	base, err := dp.P99ChipDelayFO4Ctx(context.Background(), seed, n, dp.Node.VddNominal, 0)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// voltageMargin runs VoltageMarginCtx at a 0.1 mV step under
// context.Background(), which never cancels.
func voltageMargin(t *testing.T, dp *simd.Datapath, seed uint64, n int, vdd, target float64, spares int) VoltageResult {
	t.Helper()
	vr, err := VoltageMarginCtx(context.Background(), dp, seed, n, vdd, target, 0.1e-3, spares)
	if err != nil {
		t.Fatal(err)
	}
	return vr
}

func TestVoltageMarginMeetsTarget(t *testing.T) {
	dp := simd.New(tech.N45)
	const n = 1500
	const vdd = 0.6
	base := baseline(t, dp, 1, n)
	target := TargetDelay(dp, vdd, base)
	vr := voltageMargin(t, dp, 1, n, vdd, target, 0)
	if math.IsInf(vr.Margin, 1) {
		t.Fatal("margin unreachable")
	}
	if vr.Margin <= 0 {
		t.Errorf("expected a positive margin at %gV, got %v", vdd, vr.Margin)
	}
	if vr.Margin > 0.05 {
		t.Errorf("margin %v V implausibly large (paper: tens of mV)", vr.Margin)
	}
	if vr.P99 > target {
		t.Errorf("achieved p99 %v above target %v", vr.P99, target)
	}
	// Minimality: one step less must miss the target.
	below, err := dp.P99ChipDelayFO4Ctx(context.Background(), 1, n, vdd+vr.Margin-0.1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	lower := below * dp.FO4(vdd+vr.Margin-0.1e-3)
	if lower <= target {
		t.Errorf("margin−step already meets target: %v ≤ %v", lower, target)
	}
	if vr.PowerPct <= 0 {
		t.Error("positive margin must cost power")
	}
	if vr.String() == "" {
		t.Error("empty render")
	}
}

func TestVoltageMarginZeroWhenMet(t *testing.T) {
	dp := simd.New(tech.N90)
	const n = 1000
	base := baseline(t, dp, 2, n)
	// Target at nominal voltage is met by construction.
	target := TargetDelay(dp, tech.N90.VddNominal, base)
	vr := voltageMargin(t, dp, 2, n, tech.N90.VddNominal, target, 0)
	if vr.Margin != 0 {
		t.Errorf("margin = %v, want 0", vr.Margin)
	}
	if vr.PowerPct != 0 {
		t.Errorf("power = %v, want 0", vr.PowerPct)
	}
}

func TestSparesReduceRequiredMargin(t *testing.T) {
	dp := simd.New(tech.N45)
	const n = 1500
	const vdd = 0.6
	base := baseline(t, dp, 3, n)
	target := TargetDelay(dp, vdd, base)
	m0 := voltageMargin(t, dp, 3, n, vdd, target, 0)
	m8 := voltageMargin(t, dp, 3, n, vdd, target, 8)
	if m8.Margin >= m0.Margin {
		t.Errorf("8 spares should reduce margin: %v vs %v", m8.Margin, m0.Margin)
	}
}

// slabMargin is the voltage-margin search as it ran while it read each
// trial point from a simd.SpareSample drawn at that point's supply: a
// slab of n × (Lanes+spares) lane delays, every lane inverted, then a
// selection per chip. It is kept as the reference VoltageMarginCtx must
// match.
func slabMargin(t *testing.T, dp *simd.Datapath, seed uint64, n int, vdd, target, stepV float64, spares int) VoltageResult {
	t.Helper()
	p99At := func(vm float64) float64 {
		sample, err := dp.SpareSampleCtx(context.Background(), seed, n, vdd+vm, spares)
		if err != nil {
			t.Fatal(err)
		}
		return sample.P99FO4(spares) * dp.FO4(vdd+vm)
	}
	res := VoltageResult{Vdd: vdd, Target: target}
	lo, hi := 0.0, 0.0
	p99 := p99At(0)
	if p99 <= target {
		res.P99 = p99
		return res
	}
	for hi = stepV * 8; ; hi *= 2 {
		p99 = p99At(hi)
		if p99 <= target {
			break
		}
		lo = hi
		if hi > 0.3 {
			res.Margin, res.P99, res.PowerPct = math.Inf(1), p99, math.Inf(1)
			return res
		}
	}
	for hi-lo > stepV/2 {
		mid := (lo + hi) / 2
		if p99At(mid) <= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	vm := math.Ceil(hi/stepV-1e-9) * stepV
	res.Margin = vm
	res.P99 = p99At(vm)
	res.PowerPct = power.MarginPowerOverheadPct(vdd, vm)
	return res
}

// TestVoltageMarginMatchesSlabSearch: reading each trial point with
// P99ChipDelayFO4Ctx — no slab, and at zero spares only the lanes that
// can be slowest inverted — gives the margin, the achieved P99 and the
// power of the slab-reading search bit for bit, on every calibrated
// node at three near-threshold supplies and three spare counts.
func TestVoltageMarginMatchesSlabSearch(t *testing.T) {
	const n, seed = 300, 9
	for _, node := range tech.Nodes() {
		dp := simd.New(node)
		base := baseline(t, dp, seed, n)
		for _, vdd := range []float64{0.50, 0.55, 0.60} {
			target := TargetDelay(dp, vdd, base)
			for _, spares := range []int{0, 2, 8} {
				got := voltageMargin(t, dp, seed, n, vdd, target, spares)
				want := slabMargin(t, dp, seed, n, vdd, target, 0.1e-3, spares)
				if math.Float64bits(got.Margin) != math.Float64bits(want.Margin) ||
					math.Float64bits(got.P99) != math.Float64bits(want.P99) ||
					math.Float64bits(got.PowerPct) != math.Float64bits(want.PowerPct) {
					t.Errorf("%s @%.2fV, %d spares: search %+v, slab search %+v", node.Name, vdd, spares, got, want)
				}
			}
		}
	}
}

func TestCombinedAndBest(t *testing.T) {
	dp := simd.New(tech.N45)
	const n = 1200
	const vdd = 0.6
	base := baseline(t, dp, 6, n)
	target := TargetDelay(dp, vdd, base)
	choices, err := CombinedCtx(context.Background(), dp, 6, n, vdd, target, 0.1e-3, []int{0, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 3 {
		t.Fatalf("want 3 choices, got %d", len(choices))
	}
	// Margins must decrease with spare count.
	if !(choices[0].Margin >= choices[1].Margin && choices[1].Margin >= choices[2].Margin) {
		t.Errorf("margins not decreasing with spares: %v", choices)
	}
	best := Best(choices)
	for _, c := range choices {
		if c.PowerPct < best.PowerPct {
			t.Errorf("Best missed cheaper choice %v", c)
		}
	}
	if best.String() == "" {
		t.Error("empty render")
	}
}

func TestTargetDelayScaling(t *testing.T) {
	dp := simd.New(tech.N90)
	// Target in seconds must scale with the FO4 delay at the operating
	// voltage: same FO4-normalized delay at every supply.
	if TargetDelay(dp, 0.5, 55) <= TargetDelay(dp, 0.6, 55) {
		t.Error("target at 0.5V must be longer in absolute time than at 0.6V")
	}
}

// cancelAfter is a context whose Done channel closes at the (n+1)-th
// call to Done. Every Monte-Carlo worker asks for Done once before it
// samples, so newCancelAfter(n) cancels a search deterministically after
// n worker spans, wherever in the search that falls.
type cancelAfter struct {
	context.Context
	mu    sync.Mutex
	calls int
	n     int
	done  chan struct{}
}

func newCancelAfter(n int) *cancelAfter {
	return &cancelAfter{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *cancelAfter) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls == c.n+1 {
		close(c.done)
	}
	return c.done
}

func (c *cancelAfter) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// spans counts the worker spans run makes under a context that never
// cancels.
func spans(t *testing.T, run func(ctx context.Context) error) int {
	t.Helper()
	counter := newCancelAfter(math.MaxInt - 1)
	if err := run(counter); err != nil {
		t.Fatal(err)
	}
	return counter.calls
}

// TestSearchesStopWhenCancelled cuts each search before every
// Monte-Carlo call it makes (each call runs min(GOMAXPROCS, n) worker
// spans) and requires context.Canceled from every cut, so each
// cancellation point of the searches returns ctx's error instead of a
// partial answer.
func TestSearchesStopWhenCancelled(t *testing.T) {
	dp := simd.New(tech.N45)
	const n, vdd = 100, 0.6
	base := baseline(t, dp, 7, n)
	target := TargetDelay(dp, vdd, base)
	searches := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"VoltageMarginCtx", func(ctx context.Context) error {
			_, err := VoltageMarginCtx(ctx, dp, 7, n, vdd, target, 0.1e-3, 0)
			return err
		}},
		{"CombinedCtx", func(ctx context.Context) error {
			_, err := CombinedCtx(ctx, dp, 7, n, vdd, target, 0.1e-3, []int{8})
			return err
		}},
	}
	step := min(runtime.GOMAXPROCS(0), n)
	for _, s := range searches {
		total := spans(t, s.run)
		for cut := 0; cut < total; cut += step {
			if err := s.run(newCancelAfter(cut)); !errors.Is(err, context.Canceled) {
				t.Errorf("%s cut after %d of %d worker spans: err = %v, want context.Canceled",
					s.name, cut, total, err)
			}
		}
	}
}

// TestCombinedReturnsFinishedChoices cancels CombinedCtx right after its
// first spare count's margin search: it returns that finished choice,
// equal to the uncancelled one, alongside context.Canceled.
func TestCombinedReturnsFinishedChoices(t *testing.T) {
	dp := simd.New(tech.N45)
	const n, vdd = 100, 0.6
	target := TargetDelay(dp, vdd, baseline(t, dp, 8, n))
	spares := []int{0, 8}
	full, err := CombinedCtx(context.Background(), dp, 8, n, vdd, target, 0.1e-3, spares)
	if err != nil {
		t.Fatal(err)
	}
	first := spans(t, func(ctx context.Context) error {
		_, err := VoltageMarginCtx(ctx, dp, 8, n, vdd, target, 0.1e-3, spares[0])
		return err
	})
	got, err := CombinedCtx(newCancelAfter(first), dp, 8, n, vdd, target, 0.1e-3, spares)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) != 1 || got[0] != full[0] {
		t.Errorf("finished choices = %v, want [%v]", got, full[0])
	}
}
