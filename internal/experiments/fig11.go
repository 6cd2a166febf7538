package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/ntvsim/ntvsim/internal/report"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/variation"
)

func init() {
	register("fig11", Circuit, 1000,
		"delay variation at 0.55V vs logic chain length, four nodes", runFig11)
}

// fig11Lengths is the chain-length sweep of Figure 11 (Appendix C).
var fig11Lengths = []int{1, 2, 5, 10, 20, 50, 100, 200}

// Fig11Series is one node's 3σ/μ-vs-chain-length curve at 0.55 V.
type Fig11Series struct {
	Node     tech.Node
	Lengths  []int
	ThreeSig []float64
}

// Fig11Result reproduces Figure 11: delay variation at 0.55 V versus
// chain length for the four nodes, demonstrating diminishing returns —
// |Δ(3σ/μ)/ΔN| falls with N, so longer logic chains alone cannot solve
// the timing-variation problem.
type Fig11Result struct {
	Vdd     float64
	Samples int
	Series  []Fig11Series
}

// ID implements Result.
func (r *Fig11Result) ID() string { return "fig11" }

// Render implements Result.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: 3σ/μ (%%) at %.2f V vs chain length, %d samples/point\n", r.Vdd, r.Samples)
	headers := []string{"N"}
	for _, s := range r.Series {
		headers = append(headers, s.Node.Name)
	}
	t := report.NewTable("", headers...)
	for i, n := range fig11Lengths {
		cells := []string{fmt.Sprintf("%d", n)}
		for _, s := range r.Series {
			cells = append(cells, fmt.Sprintf("%.2f%%", s.ThreeSig[i]))
		}
		t.AddRowf(cells...)
	}
	b.WriteString(t.String())
	return b.String()
}

func runFig11(ctx context.Context, cfg Config) (Result, error) {
	const vdd = 0.55
	res := &Fig11Result{Vdd: vdd, Samples: cfg.CircuitSamples}
	for ni, node := range tech.Nodes() {
		sampler := variation.NewSampler(node.Dev, node.Var)
		// Every length is a prefix of one 200-gate chain per sample drawn
		// from Figure 2's seed at 0.55 V, one of its grid points, so
		// N = 50 is Figure 2's value.
		v, err := sampler.ChainThreeSigmaCtx(ctx, fig2Seed(cfg, ni, vdd), cfg.CircuitSamples, vdd, fig11Lengths...)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, Fig11Series{Node: node, Lengths: fig11Lengths, ThreeSig: v})
	}
	return res, nil
}
