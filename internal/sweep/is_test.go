package sweep

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// isSpec is a single-point yield_is sweep at a moderate 2σ target,
// where both MC and IS converge quickly.
func isSpec() Spec {
	return Spec{
		Metric:    "yield_is",
		Nodes:     []string{"22nm"},
		Vdd:       &VddAxis{From: 0.50, To: 0.50, Step: 0.05},
		Samples:   []int{4000},
		Seed:      4242,
		TailSigma: 2,
	}
}

func TestSamplerKnobNormalization(t *testing.T) {
	// sampler:"is" maps a plain kernel to its IS twin and fills the
	// proposal defaults.
	ns, err := Spec{Metric: "tailyield", Sampler: "is"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Metric != "yield_is" || ns.Sampler != "is" {
		t.Errorf("is-twin mapping: metric %q sampler %q", ns.Metric, ns.Sampler)
	}
	if ns.TailSigma != DefaultTailSigma || ns.ISShift != DefaultTailSigma || ns.ISMix != 0.25 {
		t.Errorf("defaults not resolved: tail %v shift %v mix %v", ns.TailSigma, ns.ISShift, ns.ISMix)
	}

	// sampler:"mc" maps an IS kernel back to its plain twin.
	ns, err = Spec{Metric: "yield_is", Sampler: "mc"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Metric != "tailyield" || ns.Sampler != "mc" || ns.ISShift != 0 || ns.ISMix != 0 {
		t.Errorf("mc-twin mapping: %+v", ns)
	}

	// Naming the IS kernel directly is the same as sampler:"is".
	ns, err = Spec{Metric: "yield_is", TailSigma: 3}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Sampler != "is" || ns.ISShift != 3 {
		t.Errorf("direct IS metric: sampler %q shift %v, want is/3 (shift defaults to tail sigma)", ns.Sampler, ns.ISShift)
	}

	for _, bad := range []Spec{
		{Metric: "tailyield", Sampler: "bogus"},
		{Metric: "chain3sigma", Sampler: "is"},  // no IS variant
		{Metric: "p99chipclock", Sampler: "is"}, // its IS variant is retired
		{Metric: "chain3sigma", TailSigma: 3},   // no tail target
		{Metric: "tailyield", ISShift: 2},       // IS knob on plain kernel
		{Metric: "yield_is", ISMix: 1.5},        // mixture weight out of range
		{Metric: "yield_is", TailSigma: -1},     // negative sigma
		{Experiment: "fig2", Sampler: "is"},     // experiments have no sampler
		{Experiment: "fig2", TailSigma: 4},      // …or tail target
	} {
		if _, err := bad.Normalized(); err == nil {
			t.Errorf("Normalized(%+v) accepted, want error", bad)
		}
	}
}

// TestISShardedMatchesSerial is the acceptance criterion: a sharded
// importance-sampling sweep must merge byte-identical to a serial run
// of the same spec.
func TestISShardedMatchesSerial(t *testing.T) {
	serial, err := RunSerial(context.Background(), isSpec())
	if err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine(t, 4, 16)
	sw, err := eng.Submit(isSpec())
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
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	mj, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(mj) {
		t.Errorf("sharded JSON differs from serial:\n%s\nvs\n%s", mj, sj)
	}
	if got, want := merged.Render(), serial.Render(); got != want {
		t.Errorf("sharded render differs from serial:\n%s\nvs\n%s", got, want)
	}
}

// TestYieldISAgreesWithMC runs the MC and IS tail-yield kernels on the
// same grid point at a moderate 2σ target and checks both against the
// analytic loss 1−Φ(2) and against each other.
func TestYieldISAgreesWithMC(t *testing.T) {
	const wantPPM = 22750.13 // (1−Φ(2))·1e6
	mcSpec := isSpec()
	mcSpec.Sampler = "mc"
	mcSpec.Samples = []int{20000}
	mc, err := RunSerial(context.Background(), mcSpec)
	if err != nil {
		t.Fatal(err)
	}
	is, err := RunSerial(context.Background(), isSpec())
	if err != nil {
		t.Fatal(err)
	}
	pMC, pIS := mc.Points[0].Value, is.Points[0].Value
	if math.Abs(pMC-wantPPM)/wantPPM > 0.2 {
		t.Errorf("MC tail loss %v ppm, want ≈ %v", pMC, wantPPM)
	}
	if math.Abs(pIS-wantPPM)/wantPPM > 0.2 {
		t.Errorf("IS tail loss %v ppm, want ≈ %v", pIS, wantPPM)
	}
	if math.Abs(pMC-pIS)/wantPPM > 0.25 {
		t.Errorf("MC %v and IS %v ppm disagree", pMC, pIS)
	}
}

// TestISDiagnosticsSurfaced checks that IS sweeps carry per-point
// weight diagnostics through Render, CSV and JSON, and plain sweeps
// stay on the original layouts.
func TestISDiagnosticsSurfaced(t *testing.T) {
	res, err := RunSerial(context.Background(), isSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.IS == nil {
			t.Fatalf("point %d has no IS diagnostics", p.Index)
		}
		if p.IS.N != p.Samples || p.IS.ESS <= 0 || p.IS.ESSFrac > 1 {
			t.Errorf("implausible diagnostics: %+v", p.IS)
		}
		if p.IS.Degenerate {
			t.Errorf("defensive mixture flagged degenerate: %+v", p.IS)
		}
	}
	if !strings.Contains(res.Render(), "ESS") {
		t.Errorf("IS render lacks ESS column:\n%s", res.Render())
	}
	if got := strings.Join(res.CSV()[0], ","); !strings.Contains(got, "ess_frac") {
		t.Errorf("IS CSV header %q lacks diagnostics columns", got)
	}

	plain, err := RunSerial(context.Background(), Spec{
		Metric: "chain3sigma", Nodes: []string{"22nm"},
		Vdd: &VddAxis{From: 0.5, To: 0.5, Step: 0.05}, Samples: []int{100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(plain.CSV()[0], ","); strings.Contains(got, "ess") {
		t.Errorf("plain CSV header %q gained diagnostics columns", got)
	}
}

// TestCacheKeySamplerParams pins the cache-identity rules: sampler
// parameters are part of an IS shard's key, and plain kernels keep the
// pre-sampler key shape (all new fields zero → omitted).
func TestCacheKeySamplerParams(t *testing.T) {
	ns, err := isSpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	pt := ns.Grid()[0]
	base := keyOf(ns, pt)
	shifted := ns
	shifted.ISShift = 3.5
	if keyOf(shifted, pt) == base {
		t.Error("cache key ignores is_shift")
	}
	mixed := ns
	mixed.ISMix = 0.5
	if keyOf(mixed, pt) == base {
		t.Error("cache key ignores is_mix")
	}
	sigma := ns
	sigma.TailSigma = 3
	if keyOf(sigma, pt) == base {
		t.Error("cache key ignores tail_sigma")
	}

	plain, err := tinySpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if plain.TailSigma != 0 || plain.ISShift != 0 || plain.ISMix != 0 {
		t.Errorf("plain spec gained sampler params: %+v", plain)
	}
}
