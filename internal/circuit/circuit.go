// Package circuit provides gate-level timing structures for the
// Monte-Carlo variation study: inverter chains (the paper's canonical
// critical-path emulation), generic combinational timing graphs with
// longest-path evaluation, and 64-bit Kogge-Stone / ripple-carry adders
// used to validate the chain emulation against Drego et al. [7].
package circuit

import (
	"fmt"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/variation"
)

// Chain is a series of identical FO4 inverters — the standard
// circuit-level variation testbench. The paper uses N = 50 to emulate
// one SIMD critical path.
type Chain struct {
	N int
}

// Delay draws one Monte-Carlo sample of the chain delay (seconds) at
// supply vdd on die d.
func (c Chain) Delay(s *variation.Sampler, r *rng.Stream, vdd float64, d variation.Die) float64 {
	return s.ChainDelay(r, vdd, c.N, d)
}

// Graph is a combinational timing DAG. Nodes are gates (or fixed-delay
// cells built from several gate delays); edges point from driver to
// receiver. Node IDs are dense indices assigned by AddGate; since a
// node's fan-ins must already exist, ID order is a topological order.
// Graphs are built once and evaluated many times under Monte-Carlo
// samples; evaluation only reads the graph, so concurrent samplers may
// share one.
type Graph struct {
	fanin [][]int
	gates []int // number of series gate delays within each node
}

// NewGraph returns an empty timing graph.
func NewGraph() *Graph { return &Graph{} }

// AddGate adds a node representing gateCount series gate delays driven by
// the given fan-in nodes and returns its ID. gateCount must be ≥ 0
// (0 models a wire/port). Fan-in IDs must already exist.
func (g *Graph) AddGate(gateCount int, fanin ...int) int {
	if gateCount < 0 {
		panic(fmt.Sprintf("circuit: AddGate gateCount = %d", gateCount))
	}
	for _, f := range fanin {
		if f < 0 || f >= len(g.gates) {
			panic(fmt.Sprintf("circuit: AddGate fan-in %d does not exist", f))
		}
	}
	g.gates = append(g.gates, gateCount)
	g.fanin = append(g.fanin, append([]int(nil), fanin...))
	return len(g.gates) - 1
}

// Depth returns the maximum number of series gate delays along any path,
// i.e. the critical-path length in units of nominal gates.
func (g *Graph) Depth() int {
	depth := make([]int, len(g.gates))
	max := 0
	for i := range g.gates {
		d := 0
		for _, f := range g.fanin[i] {
			if depth[f] > d {
				d = depth[f]
			}
		}
		depth[i] = d + g.gates[i]
		if depth[i] > max {
			max = depth[i]
		}
	}
	return max
}

// Delay draws one Monte-Carlo sample of the critical-path (longest path)
// delay of the graph at supply vdd on die d. Each series gate within
// each node receives an independent within-die draw.
func (g *Graph) Delay(s *variation.Sampler, r *rng.Stream, vdd float64, d variation.Die) float64 {
	arrival := make([]float64, len(g.gates))
	var worst float64
	for i := range g.gates {
		var at float64
		for _, f := range g.fanin[i] {
			if arrival[f] > at {
				at = arrival[f]
			}
		}
		for k := 0; k < g.gates[i]; k++ {
			at += s.GateDelay(r, vdd, d)
		}
		arrival[i] = at
		if at > worst {
			worst = at
		}
	}
	return worst
}
