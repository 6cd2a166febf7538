package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/sparing"
	"github.com/ntvsim/ntvsim/internal/tech"
)

func init() {
	register("ablation", Architecture, 6000,
		"spare effectiveness under iid-path vs correlated-lane models (extension)", runAblation)
}

// AblationRow compares spare effectiveness under the two architecture
// correlation models at one voltage.
type AblationRow struct {
	Vdd float64
	// P99 gains from 16 spares: 1 − p99(16)/p99(0), percent.
	IIDGainPct     float64
	SpatialGainPct float64 // AR(1) field, 8-lane correlation length
	CorrGainPct    float64
	// Spares needed to match the nominal baseline (limit 64; -1 if not
	// reachable).
	IIDSpares  int
	CorrSpares int
}

// AblationResult is an extension beyond the paper: it quantifies how the
// paper's implicit iid-path assumption drives the structural-duplication
// result. Under the physically conservative alternative — die-to-die
// variation shared by all lanes of a chip — dropping slow lanes cannot
// fix a slow die, and duplication loses most of its value while voltage
// margining is unaffected. A spatially correlated AR(1) field (8-lane
// correlation length) sits between the extremes. This is the
// repository's headline ablation (DESIGN.md, "Key modeling decisions").
type AblationResult struct {
	Node    tech.Node
	Samples int
	Rows    []AblationRow
}

// ID implements Result.
func (r *AblationResult) ID() string { return "ablation" }

// Render implements Result.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: spare effectiveness, iid paths (paper) vs shared-die D2D, %s, %d samples\n",
		r.Node.Name, r.Samples)
	t := report.NewTable("", "Vdd", "p99 gain 16 spares (iid)", "(spatial λ=8)", "(shared die)", "spares to match (iid)", "(shared die)")
	for _, row := range r.Rows {
		iid, corr := "—", "—"
		if row.IIDSpares >= 0 {
			iid = fmt.Sprintf("%d", row.IIDSpares)
		}
		if row.CorrSpares >= 0 {
			corr = fmt.Sprintf("%d", row.CorrSpares)
		}
		t.AddRowf(fmt.Sprintf("%.2f V", row.Vdd),
			fmt.Sprintf("%.2f%%", row.IIDGainPct),
			fmt.Sprintf("%.2f%%", row.SpatialGainPct),
			fmt.Sprintf("%.2f%%", row.CorrGainPct),
			iid, corr)
	}
	b.WriteString(t.String())
	b.WriteString("Shared-die correlation collapses the value of structural duplication:\n" +
		"spares drop slow lanes, not slow dies. Margining (Table 2) is unaffected.\n")
	return b.String()
}

func runAblation(ctx context.Context, cfg Config) (Result, error) {
	node := tech.N90
	res := &AblationResult{Node: node, Samples: cfg.SearchSamples}
	iid := simd.New(node)
	corr := simd.New(node)
	corr.Corr = simd.SharedDie
	spatial := simd.New(node)
	spatial.Corr = simd.Spatial
	spatial.CorrLanes = 8

	baseIID, err := iid.P99ChipDelayFO4Ctx(ctx, cfg.Seed, cfg.SearchSamples, node.VddNominal, 0)
	if err != nil {
		return nil, err
	}
	baseCorr, err := corr.P99ChipDelayFO4Ctx(ctx, cfg.Seed, cfg.SearchSamples, node.VddNominal, 0)
	if err != nil {
		return nil, err
	}

	seed, n := cfg.Seed+1, cfg.SearchSamples
	// gain16 is the p99 gain from 16 spares, in percent.
	gain16 := func(s *simd.SpareSample) float64 {
		return 100 * (1 - s.P99FO4(16)/s.P99FO4(0))
	}
	// minSpares is the spare count that meets target, or -1 (rendered
	// "—") when even the sample's 64 spares miss it.
	minSpares := func(s *simd.SpareSample, target float64) int {
		if sr := sparing.MinSpares(s, target); sr.Found {
			return sr.Spares
		}
		return -1
	}
	for _, vdd := range []float64{0.60, 0.55, 0.50} {
		row := AblationRow{Vdd: vdd}
		// One draw per datapath: the iid-paths and shared-die samples
		// answer both the 16-spare gain and the 64-spare search.
		iidSample, err := iid.SpareSampleCtx(ctx, seed, n, vdd, 64)
		if err != nil {
			return nil, err
		}
		spatialSample, err := spatial.SpareSampleCtx(ctx, seed, n, vdd, 16)
		if err != nil {
			return nil, err
		}
		corrSample, err := corr.SpareSampleCtx(ctx, seed, n, vdd, 64)
		if err != nil {
			return nil, err
		}
		row.IIDGainPct = gain16(iidSample)
		row.SpatialGainPct = gain16(spatialSample)
		row.CorrGainPct = gain16(corrSample)
		row.IIDSpares = minSpares(iidSample, baseIID)
		row.CorrSpares = minSpares(corrSample, baseCorr)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
