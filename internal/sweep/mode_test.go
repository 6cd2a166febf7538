package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// sstaSpec is a small two-node p99 sweep answered analytically.
func sstaSpec() Spec {
	return Spec{
		Metric:  "p99chipclock",
		Mode:    ModeSSTA,
		Nodes:   []string{"90nm GP", "22nm PTM HP"},
		Vdd:     &VddAxis{From: 0.50, To: 0.60, Step: 0.05},
		Samples: []int{1500},
		Seed:    4242,
	}
}

func TestModeNormalization(t *testing.T) {
	// Default: no mode, nothing resolved — specs stay byte-identical to
	// pre-knob behavior.
	ns, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Mode != "" || ns.AutoBand != 0 || ns.AutoThreshold != 0 {
		t.Errorf("plain spec gained mode fields: %+v", ns)
	}

	// Auto fills the default decision band.
	auto := tinySpec()
	auto.Mode = ModeAuto
	auto.AutoThreshold = 30
	ns, err = auto.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ns.AutoBand != DefaultAutoBand {
		t.Errorf("auto band default not filled: %v", ns.AutoBand)
	}

	// Explicit knobs survive normalization.
	auto.AutoBand = 0.2
	ns, err = auto.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ns.AutoBand != 0.2 || ns.AutoThreshold != 30 {
		t.Errorf("explicit auto knobs rewritten: %+v", ns)
	}

	for _, bad := range []Spec{
		{Metric: "chain3sigma", Mode: "bogus"},
		{Metric: "chain3sigma", Mode: ModeAuto}, // no threshold
		{Metric: "chain3sigma", Mode: ModeAuto, AutoThreshold: math.NaN()},
		{Metric: "chain3sigma", Mode: ModeAuto, AutoThreshold: 30, AutoBand: -1},
		{Metric: "chain3sigma", Mode: ModeSSTA, AutoThreshold: 30}, // auto knob without auto
		{Metric: "chain3sigma", AutoBand: 0.1},                     // auto knob without mode
		{Experiment: "fig2", Mode: ModeSSTA},                       // experiments have no estimator knob
		{Experiment: "fig2", AutoThreshold: 1},
	} {
		if _, err := bad.Normalized(); err == nil {
			t.Errorf("Normalized(%+v) accepted, want error", bad)
		}
	}
}

// TestModeUnsupportedForISKernels pins the typed rejection: the
// importance-sampling kernels have no analytic law, and the error must
// be detectable with errors.Is for the HTTP layer's mode_unsupported
// envelope.
func TestModeUnsupportedForISKernels(t *testing.T) {
	for _, spec := range []Spec{
		{Metric: "yield_is", Mode: ModeSSTA},
		{Metric: "yield_is", Mode: ModeAuto, AutoThreshold: 100},
		{Metric: "tailyield", Sampler: "is", Mode: ModeSSTA}, // twin mapping lands on yield_is
	} {
		_, err := spec.Normalized()
		if err == nil {
			t.Fatalf("Normalized(%+v) accepted, want ErrModeUnsupported", spec)
		}
		if !errors.Is(err, ErrModeUnsupported) {
			t.Errorf("Normalized(%+v) error %v not ErrModeUnsupported", spec, err)
		}
	}
	// The sentinel must NOT leak into ordinary validation failures.
	if _, err := (Spec{Metric: "nope"}).Normalized(); errors.Is(err, ErrModeUnsupported) {
		t.Error("unknown-metric error classified as ErrModeUnsupported")
	}
}

// TestRetiredKernel pins the typed rejection of a retired metric: with
// or without the knobs it used to take, the spec fails with
// ErrKernelRetired (the HTTP layer's kernel_retired envelope) and the
// message names the replacement. The sentinel stays off unknown metrics
// and mode rejections, and no retired id is still registered.
func TestRetiredKernel(t *testing.T) {
	for _, spec := range []Spec{
		{Metric: "p99chipclock_is"},
		{Metric: "p99chipclock_is", Mode: ModeSSTA},
		// The normalized form a coordinator journal holds.
		{Metric: "p99chipclock_is", Sampler: "is", ISShift: 2.3263478740408408, ISMix: 0.25},
	} {
		_, err := spec.Normalized()
		if !errors.Is(err, ErrKernelRetired) {
			t.Errorf("Normalized(%+v) = %v, want ErrKernelRetired", spec, err)
			continue
		}
		if !strings.Contains(err.Error(), `metric "p99chipclock" with mode "ssta"`) {
			t.Errorf("retired-kernel error %q does not name the replacement", err)
		}
	}
	for _, spec := range []Spec{{Metric: "nope"}, {Metric: "yield_is", Mode: ModeSSTA}} {
		if _, err := spec.Normalized(); errors.Is(err, ErrKernelRetired) {
			t.Errorf("Normalized(%+v) classified as ErrKernelRetired", spec)
		}
	}
	for id := range retiredKernels {
		if _, ok := kernels[id]; ok {
			t.Errorf("retired kernel %q is still registered", id)
		}
	}
}

func TestKernelModes(t *testing.T) {
	for _, k := range Kernels() {
		modes := k.Modes()
		if k.IS {
			if len(modes) != 1 || modes[0] != ModeMC {
				t.Errorf("IS kernel %s modes %v, want [mc]", k.ID, modes)
			}
		} else if len(modes) != 3 {
			t.Errorf("kernel %s modes %v, want mc/ssta/auto", k.ID, modes)
		}
	}
}

// TestCacheKeyModePinned pins the cache-compatibility contract across
// the mode knob. The hex keys are the exact shard keys this spec
// produced before the knob existed; a spec without a mode — and an
// auto-mode spec, for every point it refines — must keep producing
// them byte-identically, or every pre-upgrade cache entry is orphaned.
func TestCacheKeyModePinned(t *testing.T) {
	base := Spec{
		Metric:  "chain3sigma",
		Nodes:   []string{"22nm"},
		Vdd:     &VddAxis{From: 0.5, To: 0.55, Step: 0.05},
		Samples: []int{64},
	}
	pinned := map[string][2]string{
		"chain3sigma": {
			"4405cd4cf046d7f7ea51cd9d798207ac42f345977aead46a4e37642087b3ea6a",
			"c7ee6ed7b63fb3740b935af7cb047d6bf85e0c63234a1d8d15020154556a94f1",
		},
		"p99chipclock": {
			"671cd7d8155e3d7fbc5ecaa3170b3522bff3f428f4bcaacd86b2e99347df1b8b",
			"9042798a0f21213ca3c4e7bfd3aedda33fb63e7e2d9b7efe4ca588032bc8bd23",
		},
		"tailyield": {
			"3dc131323b8e1d623a536a7830c6c412ddd514b908f7c54b7cafdc87022a8813",
			"04666a5c064d730792b42e240d35643076b64c59a168b9a617292a844c5eb9c2",
		},
	}
	for metric, want := range pinned {
		spec := base
		spec.Metric = metric
		ns, err := spec.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		pts := ns.Grid()
		for i, w := range want {
			if got := keyOf(ns, pts[i])[:64]; got != w {
				t.Errorf("%s point %d key %s, want pinned pre-mode key %s", metric, i, got, w)
			}
		}

		// An explicit mode "mc" is the same estimator: same keys.
		mc := spec
		mc.Mode = ModeMC
		nsMC, err := mc.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got := keyOf(nsMC, nsMC.Grid()[i])[:64]; got != w {
				t.Errorf("%s mode=mc point %d key %s, want %s", metric, i, got, w)
			}
		}
	}
}

// TestCacheKeySSTA pins the analytic key identity: distinct from the MC
// key, independent of samples and seed (the analytic estimator has
// neither), still parameterized by the tail target, and shared between
// a pure-ssta sweep and the non-refined points of an auto sweep.
func TestCacheKeySSTA(t *testing.T) {
	ns, err := sstaSpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	pt := ns.Grid()[0]
	key := keyOf(ns, pt)

	plain := sstaSpec()
	plain.Mode = ""
	nsPlain, err := plain.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(nsPlain, nsPlain.Grid()[0]) == key {
		t.Error("ssta key collides with the MC key")
	}

	resampled := sstaSpec()
	resampled.Samples = []int{999}
	resampled.Seed = 777
	nsRe, err := resampled.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(nsRe, nsRe.Grid()[0]) != key {
		t.Error("ssta key depends on samples/seed; analytic shards should be shared across them")
	}

	tail := Spec{Metric: "tailyield", Mode: ModeSSTA, Nodes: []string{"22nm"},
		Vdd: &VddAxis{From: 0.5, To: 0.5, Step: 0.05}, Samples: []int{10}}
	nsT3, err := tail.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	tail.TailSigma = 3
	nsT4, err := tail.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(nsT3, nsT3.Grid()[0]) == keyOf(nsT4, nsT4.Grid()[0]) {
		t.Error("ssta tail-yield key ignores tail_sigma")
	}
}

// TestSSTAMatchesMCAcrossGrid is the kernel-level SSTA-vs-MC error
// contract over the full tech-node × Vdd grid the service sweeps: for
// every SSTA-capable kernel, the analytic value must agree with the
// Monte-Carlo estimate within a bound a few MC standard errors wide.
// (The tighter p99-inside-MC-confidence-interval property lives with
// the law itself in internal/ssta.)
func TestSSTAMatchesMCAcrossGrid(t *testing.T) {
	cases := []struct {
		metric    string
		samples   int
		tailSigma float64
		relBound  float64
	}{
		{"chain3sigma", 2000, 0, 0.10},
		{"gate3sigma", 2000, 0, 0.10},
		{"p99chipclock", 4000, 0, 0.03},
		// 2σ target: MC rel SE ≈ √((1−p)/(Np)) ≈ 4.6 % at this budget.
		{"tailyield", 20000, 2, 0.25},
	}
	for _, c := range cases {
		spec := Spec{Metric: c.metric, Samples: []int{c.samples}, Seed: 99, TailSigma: c.tailSigma}
		ns, err := spec.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		mcRes, err := RunSerial(context.Background(), ns)
		if err != nil {
			t.Fatal(err)
		}
		an := spec
		an.Mode = ModeSSTA
		anRes, err := RunSerial(context.Background(), an)
		if err != nil {
			t.Fatal(err)
		}
		for i := range mcRes.Points {
			mc, ssta := mcRes.Points[i].Value, anRes.Points[i].Value
			if mc <= 0 || ssta <= 0 || math.IsNaN(ssta) {
				t.Fatalf("%s point %d: implausible values mc=%v ssta=%v", c.metric, i, mc, ssta)
			}
			if rel := math.Abs(ssta-mc) / mc; rel > c.relBound {
				p := mcRes.Points[i]
				t.Errorf("%s %s @%.2fV: SSTA %.6g vs MC %.6g (rel %.4f > %.2f)",
					c.metric, p.Node, p.Vdd, ssta, mc, rel, c.relBound)
			}
		}
	}
}

// TestAutoMatchesMCAndSSTA is the auto-mode acceptance criterion: every
// point the decision band refines must merge byte-identical (value and
// mode stamp) to a mode-mc sweep of the same spec, and every point the
// screen resolves must merge byte-identical to a mode-ssta sweep.
func TestAutoMatchesMCAndSSTA(t *testing.T) {
	base := sstaSpec()
	base.Mode = ""
	ssta := sstaSpec()
	sstaRes, err := RunSerial(context.Background(), ssta)
	if err != nil {
		t.Fatal(err)
	}
	mc := base
	mc.Mode = ModeMC
	mcRes, err := RunSerial(context.Background(), mc)
	if err != nil {
		t.Fatal(err)
	}

	// Put the decision boundary on the middle 22nm point's screened
	// value with a tight band, so the grid splits into both kinds.
	auto := base
	auto.Mode = ModeAuto
	auto.AutoThreshold = sstaRes.Points[4].Value
	auto.AutoBand = 0.01
	autoRes, err := RunSerial(context.Background(), auto)
	if err != nil {
		t.Fatal(err)
	}

	var refined, resolved int
	for i, p := range autoRes.Points {
		switch p.Mode {
		case ModeMC:
			refined++
			if p.Value != mcRes.Points[i].Value {
				t.Errorf("refined point %d: auto %v != mc %v", i, p.Value, mcRes.Points[i].Value)
			}
		case ModeSSTA:
			resolved++
			if p.Value != sstaRes.Points[i].Value {
				t.Errorf("resolved point %d: auto %v != ssta %v", i, p.Value, sstaRes.Points[i].Value)
			}
		default:
			t.Errorf("auto point %d carries no mode stamp: %+v", i, p)
		}
	}
	if refined == 0 || resolved == 0 {
		t.Fatalf("decision band did not split the grid: %d refined, %d resolved", refined, resolved)
	}

	// Full-payload byte identity per point against the matching pure
	// sweep: marshal the point structs themselves.
	for i, p := range autoRes.Points {
		var want any
		if p.Mode == ModeMC {
			want = mcRes.Points[i]
		} else {
			want = sstaRes.Points[i]
			// The pure-ssta run stamps the same values; only the stamp
			// name matches by construction.
		}
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if p.Mode == ModeMC && string(got) != string(wj) {
			t.Errorf("refined point %d not byte-identical:\n%s\nvs\n%s", i, got, wj)
		}
	}
}

// TestModeShardedMatchesSerial extends the engine determinism contract
// to the new estimators: sharded ssta and auto sweeps must merge
// byte-identical to serial runs, and an auto sweep's refined shards
// must interoperate with the cache entries of plain sweeps.
func TestModeShardedMatchesSerial(t *testing.T) {
	for _, mk := range []func() Spec{
		sstaSpec,
		func() Spec {
			s := sstaSpec()
			s.Mode = ModeAuto
			s.AutoThreshold = 50
			s.AutoBand = 0.5
			return s
		},
	} {
		serial, err := RunSerial(context.Background(), mk())
		if err != nil {
			t.Fatal(err)
		}
		eng := newTestEngine(t, 4, 16)
		sw, err := eng.Submit(mk())
		if err != nil {
			t.Fatal(err)
		}
		snap := waitDone(t, sw, time.Minute)
		if snap.State != Done {
			t.Fatalf("sweep finished %s: %+v", snap.State, snap.Shards)
		}
		merged, ok := sw.Result()
		if !ok {
			t.Fatal("done sweep has no result")
		}
		sj, _ := json.Marshal(serial)
		mj, _ := json.Marshal(merged)
		if string(sj) != string(mj) {
			t.Errorf("sharded %s sweep differs from serial:\n%s\nvs\n%s", mk().Mode, mj, sj)
		}
	}
}

// TestSSTAShardCacheSharedAcrossSamples: analytic shards carry no
// sample count or seed in their identity, so resubmitting an ssta sweep
// with a different samples axis must be served fully from the cache.
func TestSSTAShardCacheSharedAcrossSamples(t *testing.T) {
	eng := newTestEngine(t, 4, 16)
	first, err := eng.Submit(sstaSpec())
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, first, time.Minute); snap.State != Done {
		t.Fatalf("first sweep %s", snap.State)
	}
	re := sstaSpec()
	re.Samples = []int{31}
	re.Seed = 999
	second, err := eng.Submit(re)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, second, time.Minute)
	if snap.State != Done {
		t.Fatalf("second sweep %s", snap.State)
	}
	if snap.Cached != snap.Total {
		t.Errorf("resampled ssta sweep recomputed: %d/%d cached", snap.Cached, snap.Total)
	}
}

// TestModeRenderAndCSV: mode-carrying sweeps append the mode column;
// plain sweeps keep the pre-knob layouts byte-for-byte.
func TestModeRenderAndCSV(t *testing.T) {
	res, err := RunSerial(context.Background(), sstaSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "mode") {
		t.Errorf("ssta render lacks mode column:\n%s", res.Render())
	}
	header := strings.Join(res.CSV()[0], ",")
	if !strings.HasSuffix(header, ",mode") {
		t.Errorf("ssta CSV header %q lacks mode column", header)
	}
	for _, row := range res.CSV()[1:] {
		if row[len(row)-1] != ModeSSTA {
			t.Errorf("ssta CSV row %v lacks mode cell", row)
		}
	}

	plain, err := RunSerial(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(plain.CSV()[0], ","), "mode") {
		t.Errorf("plain CSV gained a mode column: %v", plain.CSV()[0])
	}
	if plain.hasMode() {
		t.Error("plain sweep points carry mode stamps")
	}
}

// TestSSTADeterministicAcrossSeeds: the analytic estimator ignores
// seeds and sample counts entirely — two ssta runs with different
// sampling parameters must produce bit-identical values.
func TestSSTADeterministicAcrossSeeds(t *testing.T) {
	a, err := RunSerial(context.Background(), sstaSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := sstaSpec()
	spec.Seed = 1
	spec.Samples = []int{7}
	b, err := RunSerial(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].Value != b.Points[i].Value {
			t.Errorf("point %d: ssta value depends on seed/samples: %v vs %v",
				i, a.Points[i].Value, b.Points[i].Value)
		}
	}
}

// TestTailYieldSSTAIsItsEstimand: the analytic tail kernel reads the
// chip law's survival at the law's own Φ(k) quantile, so it returns
// (1−Φ(k))·10⁶ up to the quantile solver's tolerance — on every
// calibrated node with its variation scaled ½× to 2×, from 0.30 V to
// 1.10 V, at k = 2, 3, 4.
func TestTailYieldSSTAIsItsEstimand(t *testing.T) {
	k := kernels["tailyield"]
	for _, base := range tech.Nodes() {
		for _, s := range []float64{0.5, 0.75, 1, 1.5, 2} {
			node := base
			node.Var = device.Variation{
				SigmaVthWID: s * base.Var.SigmaVthWID, SigmaVthD2D: s * base.Var.SigmaVthD2D,
				SigmaMulWID: s * base.Var.SigmaMulWID, SigmaMulD2D: s * base.Var.SigmaMulD2D,
			}
			for i := 0; i <= 16; i++ {
				vdd := 0.30 + 0.05*float64(i)
				for _, sigma := range []float64{2, 3, 4} {
					got, err := k.SSTA(node, vdd, Options{TailSigma: sigma})
					if err != nil {
						t.Fatal(err)
					}
					want := (1 - stdNormal.CDF(sigma)) * 1e6
					if rel := math.Abs(got-want) / want; !(rel <= 1e-6) {
						t.Errorf("%s σ×%g vdd %.2f k=%g: %v ppm, want %v (%.3g relative)", base.Name, s, vdd, sigma, got, want, rel)
					}
				}
			}
		}
	}
}
