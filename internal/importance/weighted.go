package importance

// DegenerateESSFrac is the ESS/N ratio below which Diagnose flags a
// weight population as degenerate. A defensive mixture with mix λ keeps
// ESS/N near or above λ in practice, so this threshold only trips when
// the proposal is badly mismatched to the integrand.
const DegenerateESSFrac = 0.05

// Diagnostics summarizes the health of one importance-weight
// population. It is embedded in sweep shard results so merged sweeps
// report weight quality per grid point.
type Diagnostics struct {
	// N is the number of weighted samples drawn.
	N int `json:"n"`
	// ESS is the Kish effective sample size (Σw)²/Σw².
	ESS float64 `json:"ess"`
	// ESSFrac is ESS/N ∈ (0, 1]; 1 means unit weights (plain MC).
	ESSFrac float64 `json:"ess_frac"`
	// MaxW is the largest raw likelihood weight observed, bounded by
	// 1/mix for the defensive mixture proposal.
	MaxW float64 `json:"max_weight"`
	// Degenerate reports ESSFrac < DegenerateESSFrac: the weighted
	// estimate is dominated by a few samples and should not be trusted
	// over a plain-MC run of the same budget.
	Degenerate bool `json:"degenerate,omitempty"`
}

// Diagnose computes weight diagnostics for ws and publishes them to the
// package telemetry gauges (ntvsim_is_ess_ratio, ntvsim_is_max_weight,
// ntvsim_is_degenerate_total).
func Diagnose(ws []float64) Diagnostics {
	var sumw, sumw2, maxW float64
	for _, w := range ws {
		sumw += w
		sumw2 += w * w
		if w > maxW {
			maxW = w
		}
	}
	d := diagnostics(len(ws), sumw, sumw2, maxW)
	publish(d)
	return d
}

// diagnostics builds the diagnostics of n weights from their sum, their
// sum of squares and their largest value (0 when none is positive).
func diagnostics(n int, sumw, sumw2, maxW float64) Diagnostics {
	d := Diagnostics{N: n, MaxW: maxW}
	if sumw2 > 0 {
		d.ESS = sumw * sumw / sumw2
	}
	if d.N > 0 {
		d.ESSFrac = d.ESS / float64(d.N)
		d.Degenerate = d.ESSFrac < DegenerateESSFrac
	}
	return d
}

// Merge folds another diagnostics block into d, as computed over the
// concatenated weight populations. ESS is not additive, so the merged
// ESS is reconstructed from the implied moment sums; MaxW and N
// combine exactly. Used by the sweep engine to reduce per-shard
// diagnostics to per-point ones.
func (d *Diagnostics) Merge(o Diagnostics) {
	if o.N == 0 {
		return
	}
	if d.N == 0 {
		*d = o
		return
	}
	// Recover Σw and Σw² for both sides from (ESS, ESSFrac·N): with
	// s1 = Σw and s2 = Σw², ESS = s1²/s2 determines only the ratio, so
	// diagnostics store enough to merge ESS exactly only when weights
	// are rescaled consistently. Shards of one sweep point share one
	// proposal, so raw weights are on a common scale and the harmonic
	// composition below is exact for equal-size shards and a tight
	// approximation otherwise.
	n1, n2 := float64(d.N), float64(o.N)
	e1, e2 := d.ESS, o.ESS
	merged := 0.0
	if e1 > 0 && e2 > 0 {
		// Σw ∝ n per shard at common scale (E[w] is shard-independent);
		// combine via ESS = (s1+s2)²/(s1²/e1 + s2²/e2) with s ∝ n.
		merged = (n1 + n2) * (n1 + n2) / (n1*n1/e1 + n2*n2/e2)
	}
	d.N += o.N
	d.ESS = merged
	d.ESSFrac = d.ESS / float64(d.N)
	if o.MaxW > d.MaxW {
		d.MaxW = o.MaxW
	}
	d.Degenerate = d.ESSFrac < DegenerateESSFrac
}

// MergeAll reduces diagnostics blocks (e.g. one per sweep point or
// shard) to a single summary via pairwise left-fold Merge, returning
// nil when no non-nil input carries samples. The run ledger uses it to
// stamp one weight-health block per sweep record.
func MergeAll(ds ...*Diagnostics) *Diagnostics {
	var out *Diagnostics
	for _, d := range ds {
		if d == nil || d.N == 0 {
			continue
		}
		if out == nil {
			out = &Diagnostics{}
			*out = *d
			continue
		}
		out.Merge(*d)
	}
	return out
}
