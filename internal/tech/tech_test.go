package tech

import (
	"math"
	"strings"
	"testing"

	"github.com/ntvsim/ntvsim/internal/device"
)

func TestNodesComplete(t *testing.T) {
	nodes := Nodes()
	if len(nodes) != 4 {
		t.Fatalf("want 4 nodes, got %d", len(nodes))
	}
	wantOrder := []int{90, 45, 32, 22}
	for i, n := range nodes {
		if n.Feature != wantOrder[i] {
			t.Errorf("node %d feature %d, want %d", i, n.Feature, wantOrder[i])
		}
		if err := n.Dev.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
		if err := n.Var.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
		if n.VddNominal < n.VddMin {
			t.Errorf("%s nominal below minimum", n.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"90nm", "45nm GP", "32nm", "22nm PTM HP"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("65nm"); err == nil {
		t.Error("unknown node accepted")
	} else if !strings.Contains(err.Error(), "90nm") {
		t.Error("error should list valid names")
	}
}

// TestCalibrationAnchors90nm verifies the committed 90 nm parameters
// reproduce the paper's Figure 1 values — the core calibration claim.
// Tolerances: the paper's own values carry ≈±5 % MC noise at 1000
// samples; we allow 10 % relative on each anchor via the (noise-free)
// quadrature moments.
func TestCalibrationAnchors90nm(t *testing.T) {
	node := N90
	for _, a := range Targets90().Anchors {
		gm, gv := device.GateMoments(node.Dev, node.Var, a.Vdd)
		gate := device.ThreeSigmaOverMu(gm, gv)
		if rel := math.Abs(gate-a.Gate) / a.Gate; rel > 0.10 {
			t.Errorf("gate 3σ/μ @%gV = %.2f, paper %.2f (rel %.2f)", a.Vdd, gate, a.Gate, rel)
		}
		cm, cv := device.ChainMoments(node.Dev, node.Var, a.Vdd, ChainLength)
		chain := device.ThreeSigmaOverMu(cm, cv)
		if rel := math.Abs(chain-a.Chain) / a.Chain; rel > 0.10 {
			t.Errorf("chain 3σ/μ @%gV = %.2f, paper %.2f (rel %.2f)", a.Vdd, chain, a.Chain, rel)
		}
	}
}

// TestCalibrationAnchorsChainAll verifies all four nodes against their
// chain anchors.
func TestCalibrationAnchorsChainAll(t *testing.T) {
	targets := AllTargets()
	nodes := Nodes()
	for i, tg := range targets {
		node := nodes[i]
		if node.Name != tg.NodeName {
			t.Fatalf("target %q order mismatch with node %q", tg.NodeName, node.Name)
		}
		for _, a := range tg.Anchors {
			cm, cv := device.ChainMoments(node.Dev, node.Var, a.Vdd, ChainLength)
			chain := device.ThreeSigmaOverMu(cm, cv)
			if rel := math.Abs(chain-a.Chain) / a.Chain; rel > 0.10 {
				t.Errorf("%s chain 3σ/μ @%gV = %.2f, target %.2f", node.Name, a.Vdd, chain, a.Chain)
			}
		}
	}
}

// TestAbsoluteDelayAnchors checks the §3.2 absolute delays: chain of 50
// at 0.5 V ≈ 22.05 ns and at 0.6 V ≈ 8.99 ns in 90 nm.
func TestAbsoluteDelayAnchors(t *testing.T) {
	cm5, _ := device.ChainMoments(N90.Dev, N90.Var, 0.5, ChainLength)
	cm6, _ := device.ChainMoments(N90.Dev, N90.Var, 0.6, ChainLength)
	if math.Abs(cm5-22.05e-9)/22.05e-9 > 0.10 {
		t.Errorf("chain@0.5V = %.3g s, paper 22.05 ns", cm5)
	}
	if math.Abs(cm6-8.99e-9)/8.99e-9 > 0.10 {
		t.Errorf("chain@0.6V = %.3g s, paper 8.99 ns", cm6)
	}
}

// TestScalingTrend verifies the paper's technology-scaling claim: chain
// variation at 0.55 V grows monotonically from 90 nm to 22 nm, by ≈2.5×
// in total.
func TestScalingTrend(t *testing.T) {
	var prev float64
	var first, last float64
	for i, node := range Nodes() {
		cm, cv := device.ChainMoments(node.Dev, node.Var, 0.55, ChainLength)
		cur := device.ThreeSigmaOverMu(cm, cv)
		if cur <= prev {
			t.Errorf("%s: variation %v not above previous node %v", node.Name, cur, prev)
		}
		if i == 0 {
			first = cur
		}
		last = cur
		prev = cur
	}
	if ratio := last / first; ratio < 2.0 || ratio > 3.2 {
		t.Errorf("90→22 nm scaling ratio %v, paper ≈2.5×", ratio)
	}
}

// TestFitReproducesCommittedNodes re-runs the full calibration of all
// four nodes and holds each fitted parameter to its committed literal
// within 5e-4 relative: the literals stay what cmd/calibrate produces
// from the anchors, not hand edits.
func TestFitReproducesCommittedNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration fit is slow")
	}
	for i, tg := range AllTargets() {
		node := Nodes()[i]
		res := Fit(tg)
		if res.Objective > 2 {
			t.Errorf("%s: fit objective %v too poor", node.Name, res.Objective)
		}
		if err := res.Dev.Validate(); err != nil {
			t.Errorf("%s: fitted params invalid: %v", node.Name, err)
		}
		if err := res.Var.Validate(); err != nil {
			t.Errorf("%s: fitted variation invalid: %v", node.Name, err)
		}
		if res.String() == "" {
			t.Errorf("%s: empty fit report", node.Name)
		}
		for _, c := range []struct {
			name           string
			fit, committed float64
		}{
			{"Vth0", res.Dev.Vth0, node.Dev.Vth0},
			{"N", res.Dev.N, node.Dev.N},
			{"Kd", res.Dev.Kd, node.Dev.Kd},
			{"SigmaVthWID", res.Var.SigmaVthWID, node.Var.SigmaVthWID},
			{"SigmaVthD2D", res.Var.SigmaVthD2D, node.Var.SigmaVthD2D},
			{"SigmaMulWID", res.Var.SigmaMulWID, node.Var.SigmaMulWID},
			{"SigmaMulD2D", res.Var.SigmaMulD2D, node.Var.SigmaMulD2D},
		} {
			rel := math.Abs(c.fit-c.committed) / c.committed
			t.Logf("%s %s: fit %.9g committed %.9g (rel %.2g)", node.Name, c.name, c.fit, c.committed, rel)
			if rel > 5e-4 {
				t.Errorf("%s %s: fit %.6g, committed %.6g (rel %.2g)", node.Name, c.name, c.fit, c.committed, rel)
			}
		}
	}
}
