package sweep

import (
	"errors"
	"fmt"
	"math"

	"github.com/ntvsim/ntvsim/internal/memo"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// Estimator modes a metric sweep can request via Spec.Mode. The empty
// string is equivalent to ModeMC and keeps shard cache keys
// byte-identical to releases that predate the knob.
const (
	// ModeMC runs the Monte-Carlo estimator at every grid point — the
	// default, and exactly the pre-knob behavior.
	ModeMC = "mc"
	// ModeSSTA answers every grid point from the kernel's analytic
	// (SSTA) law: microseconds per point, no sampling noise, and an
	// error contract documented in docs/SSTA.md.
	ModeSSTA = "ssta"
	// ModeAuto screens the full grid with SSTA and dispatches MC shards
	// only for points whose screened value lands within AutoBand of the
	// AutoThreshold decision boundary — the cheap-screen /
	// expensive-confirm pattern.
	ModeAuto = "auto"
)

// DefaultAutoBand is the relative half-width of the auto-mode decision
// band when the spec leaves AutoBand zero: points within ±5 % of the
// threshold are refined with MC.
const DefaultAutoBand = 0.05

// ErrModeUnsupported marks a spec asking for the ssta or auto estimator
// on a metric that has no analytic law — the importance-sampling
// kernels, whose estimator is inherently sampled. The HTTP layer maps
// it to the typed mode_unsupported envelope via errors.Is.
var ErrModeUnsupported = errors.New("metric has no analytic (SSTA) law")

// SSTA-path service metrics, exposed on GET /metrics.
var (
	mSSTAEvals = telemetry.Default.Counter("ntvsim_ssta_evals_total",
		"Grid points answered by the analytic SSTA estimator (mode ssta, or auto points it resolved).")
	mAutoRefined = telemetry.Default.Counter("ntvsim_auto_mc_refined_total",
		"Auto-mode grid points inside the decision band, refined with Monte-Carlo shards.")
)

// sstaValKey identifies one analytic kernel evaluation. The value is a
// pure function of these coordinates (the Options beyond TailSigma only
// parameterize sampled estimators), which is what makes caching it
// sound.
type sstaValKey struct {
	kernel, node   string
	vdd, tailSigma float64
}

// memoBound caps the analytic value memo; a sweep grid is bounded by
// MaxShards, but the memo is process-global, so pathological knob
// churn across many sweeps is shed by dropping the whole (cheaply
// rebuildable) map.
const memoBound = 1024

var sstaVals = memo.New[sstaValKey, float64](memoBound)

// chipLaw returns the chip-delay law of the default SIMD datapath on
// node at vdd from the one process-wide law memo (ssta.LawFor), the
// same law the Monte-Carlo and importance-sampling kernels sample.
func chipLaw(node tech.Node, vdd float64) *ssta.Law {
	return ssta.LawFor(node.Dev, node.Var, vdd, tech.ChainLength, simd.DefaultPathsPerLane, simd.DefaultLanes)
}

// sstaEval evaluates k.SSTA through a process-global value memo. An
// auto-mode sweep consults the screen for the same point several times
// (cache keying, dispatch accounting, merge stamping) and again when
// the shard evaluates analytically; the memo collapses all of them to
// one computation per (kernel, node, Vdd, tail target).
func sstaEval(k Kernel, node tech.Node, vdd float64, opt Options) (float64, error) {
	key := sstaValKey{kernel: k.ID, node: node.Name, vdd: vdd, tailSigma: opt.TailSigma}
	return sstaVals.Get(key, func() (float64, error) { return k.SSTA(node, vdd, opt) })
}

// pointMode resolves which estimator evaluates one grid point of a
// normalized metric spec: "" for plain Monte-Carlo (covering both the
// default and an explicit "mc", so shard cache keys stay byte-identical
// to pre-knob releases), or ModeSSTA for analytic points. For ModeAuto
// it runs the SSTA screen and returns "" — dispatch a real MC shard —
// exactly when the screened value lands inside the decision band
// |v − AutoThreshold| ≤ AutoBand·|AutoThreshold|.
//
// The resolution is a pure function of (spec, point), so the sharded
// engine, RunSerial and the merge step all agree on every point's
// estimator — and an auto point outside the band shares its cache key
// with pure-ssta sweeps while a refined point shares its key (and
// value, byte-identically) with plain-MC sweeps.
func (s Spec) pointMode(pt Point) (string, error) {
	switch s.Mode {
	case "", ModeMC:
		return "", nil
	}
	k := kernels[s.Metric]
	if k.SSTA == nil {
		// Normalization rejects these specs; keep the invariant locally.
		return "", fmt.Errorf("sweep: metric %q: %w", s.Metric, ErrModeUnsupported)
	}
	if s.Mode == ModeSSTA {
		return ModeSSTA, nil
	}
	node, err := tech.ByName(pt.Node)
	if err != nil {
		return "", err
	}
	v, err := sstaEval(k, node, pt.Vdd, s.options())
	if err != nil {
		return "", err
	}
	if math.Abs(v-s.AutoThreshold) <= s.AutoBand*math.Abs(s.AutoThreshold) {
		return "", nil // borderline: confirm with the Monte-Carlo estimator
	}
	return ModeSSTA, nil
}

// resolvedMode is the estimator recorded on a merged point: "" for
// sweeps that never touched the knob (their merged results stay
// byte-identical to pre-knob releases), ModeMC or ModeSSTA otherwise —
// for auto sweeps, whichever side of the decision band the point fell
// on. Resolution errors degrade to ModeMC; the shard evaluation
// surfaces them as shard failures.
func (s Spec) resolvedMode(pt Point) string {
	switch s.Mode {
	case "":
		return ""
	case ModeMC:
		return ModeMC
	}
	m, err := s.pointMode(pt)
	if err != nil || m == "" {
		return ModeMC
	}
	return m
}
