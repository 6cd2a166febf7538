package sram

import (
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/soda"
	"github.com/ntvsim/ntvsim/internal/sparing"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/xram"
)

func TestNewCellScaling(t *testing.T) {
	for _, node := range tech.Nodes() {
		c := NewCell(node)
		if got, want := c.SigmaWID, SigmaScale*node.Var.SigmaVthWID; got != want {
			t.Errorf("%s: SigmaWID = %v, want %v (scaled)", node.Name, got, want)
		}
		if got, want := c.SigmaD2D, node.Var.SigmaVthD2D; got != want {
			t.Errorf("%s: SigmaD2D = %v, want %v (unscaled)", node.Name, got, want)
		}
		if c.Contention != DefaultContention {
			t.Errorf("%s: contention %v", node.Name, c.Contention)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Errorf("op names: %q, %q", OpRead, OpWrite)
	}
}

// TestDelayMonotoneInStrength is the satellite property: access delays
// are monotone in cell strength. A higher threshold (weaker device)
// slows the read through either series transistor, slows the write
// through the access transistor, and speeds the write through the
// pull-up (less contention to overcome).
func TestDelayMonotoneInStrength(t *testing.T) {
	c := NewCell(tech.N45)
	const vdd = 0.55
	shifts := []float64{-0.10, -0.05, 0, 0.05, 0.10}
	for i := 1; i < len(shifts); i++ {
		lo, hi := shifts[i-1], shifts[i]
		if !(c.ReadDelay(vdd, lo, 0) < c.ReadDelay(vdd, hi, 0)) {
			t.Errorf("read delay not increasing in access shift at %v", hi)
		}
		if !(c.ReadDelay(vdd, 0, lo) < c.ReadDelay(vdd, 0, hi)) {
			t.Errorf("read delay not increasing in pull-down shift at %v", hi)
		}
		if !(c.WriteDelay(vdd, lo, 0) < c.WriteDelay(vdd, hi, 0)) {
			t.Errorf("write delay not increasing in access shift at %v", hi)
		}
		if !(c.WriteDelay(vdd, 0, lo) > c.WriteDelay(vdd, 0, hi)) {
			t.Errorf("write delay not decreasing in pull-up shift at %v", hi)
		}
	}
	if d := c.NominalDelay(OpRead, vdd); !(d > 0) || math.IsInf(d, 0) {
		t.Errorf("nominal read delay %v", d)
	}
	if d := c.NominalDelay(OpWrite, vdd); !(d > 0) || math.IsInf(d, 0) {
		t.Errorf("nominal write delay %v", d)
	}
}

// TestWriteDelayUnflippable: when the pull-up overpowers the access
// transistor the cell cannot be written at any speed.
func TestWriteDelayUnflippable(t *testing.T) {
	c := NewCell(tech.N90)
	c.Contention = 2 // pull-up drive twice the access drive
	if d := c.WriteDelay(0.5, 0, 0); !math.IsInf(d, 1) {
		t.Errorf("unflippable cell has finite write delay %v", d)
	}
	// A strong-enough pull-up shift restores writability.
	if d := c.WriteDelay(0.5, 0, 0.4); math.IsInf(d, 1) {
		t.Error("weakened pull-up still unwritable")
	}
}

// TestFailProbMonotoneVdd is the satellite property: raising the supply
// monotonically lowers the cell failure probability for both accesses.
func TestFailProbMonotoneVdd(t *testing.T) {
	m := New(tech.N32)
	for _, op := range []Op{OpRead, OpWrite} {
		prev := math.Inf(1)
		for _, vdd := range []float64{0.50, 0.55, 0.60, 0.70, 0.80} {
			p := m.Cell.FailProb(op, vdd, m.Budget(op, vdd), 0)
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("%v at %.2f V: p = %v outside [0,1]", op, vdd, p)
			}
			if p > prev+1e-12 {
				t.Errorf("%v fail prob not decreasing in Vdd: %.3g at %.2f V after %.3g", op, p, vdd, prev)
			}
			prev = p
		}
	}
}

// TestFailProbMonotoneSigma: more within-die variation can only hurt.
func TestFailProbMonotoneSigma(t *testing.T) {
	const vdd = 0.55
	for _, op := range []Op{OpRead, OpWrite} {
		prev := -1.0
		for _, scale := range []float64{0.5, 1, 1.5, 2, 3} {
			m := New(tech.N45)
			m.Cell.SigmaWID = scale * tech.N45.Var.SigmaVthWID
			p := m.Cell.FailProb(op, vdd, m.Budget(op, vdd), 0)
			if p < prev-1e-12 {
				t.Errorf("%v fail prob not increasing in sigma: %.3g at scale %v after %.3g", op, p, scale, prev)
			}
			prev = p
		}
	}
}

// TestFailProbBudgetCDF: the failure probability is one minus the delay
// CDF, so it must be non-increasing in the budget and hit its edges.
func TestFailProbBudgetCDF(t *testing.T) {
	c := NewCell(tech.N22)
	const vdd = 0.5
	nominal := c.NominalDelay(OpRead, vdd)
	prev := 1.0
	for _, margin := range []float64{0.5, 1, 1.5, 2, 3, 5, 10} {
		p := c.FailProb(OpRead, vdd, margin*nominal, 0)
		if p > prev+1e-12 {
			t.Errorf("fail prob not decreasing in budget: %.3g at margin %v after %.3g", p, margin, prev)
		}
		prev = p
	}
	if p := c.FailProb(OpRead, vdd, math.Inf(1), 0); p != 0 {
		t.Errorf("infinite budget: p = %v", p)
	}
	// A budget below the nominal delay fails at least half the cells.
	if p := c.FailProb(OpRead, vdd, 0.5*nominal, 0); p < 0.5 {
		t.Errorf("sub-nominal budget: p = %v, want >= 0.5", p)
	}
}

// TestFailProbDegenerateSigma: with no WID spread the conditional
// failure probability is a hard threshold on the die shift.
func TestFailProbDegenerateSigma(t *testing.T) {
	c := NewCell(tech.N90)
	c.SigmaWID = 0
	const vdd = 0.55
	budget := c.Budget(OpRead, vdd, 2)
	if p := c.FailProb(OpRead, vdd, budget, 0); p != 0 {
		t.Errorf("nominal die fails with margin 2: p = %v", p)
	}
	if p := c.FailProb(OpRead, vdd, budget, 0.5); p != 1 {
		t.Errorf("half-volt die shift passes: p = %v", p)
	}
}

func TestRowFailProbEdges(t *testing.T) {
	if p := RowFailProb(0, 512); p != 0 {
		t.Errorf("p=0: %v", p)
	}
	if p := RowFailProb(1, 512); p != 1 {
		t.Errorf("p=1: %v", p)
	}
	// Sub-ppb cell probabilities survive the log-space form: the union
	// bound cols·p is an upper bound and a ~1e-13-tight approximation.
	p := RowFailProb(1e-12, 512)
	if p <= 0 || p > 512e-12 || math.Abs(p-512e-12) > 1e-3*512e-12 {
		t.Errorf("RowFailProb(1e-12, 512) = %v, want ~5.12e-10", p)
	}
}

func TestStructureYieldEdges(t *testing.T) {
	s := Structure{Name: "t", Rows: 16, Cols: 8, SpareRows: 16}
	if y := s.Yield(0.9); y != 1 {
		t.Errorf("spares cover every row but yield %v", y)
	}
	s.SpareRows = 2
	if y := s.Yield(1); y != 0 {
		t.Errorf("certain cell failure but yield %v", y)
	}
	if y := s.Yield(0); y != 1 {
		t.Errorf("perfect cells but yield %v", y)
	}
}

func TestStructureValidate(t *testing.T) {
	for _, bad := range []Structure{
		{Name: "r", Rows: 0, Cols: 1},
		{Name: "c", Rows: 1, Cols: 0},
		{Name: "s", Rows: 1, Cols: 1, SpareRows: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v validated", bad)
		}
	}
	if err := (Structure{Name: "ok", Rows: 1, Cols: 1}).Validate(); err != nil {
		t.Errorf("valid structure rejected: %v", err)
	}
}

// TestMapYieldOrderInsensitive is the satellite property: composition
// must not depend on structure order (1e-12 relative tolerance; the
// product is mathematically commutative, floating point reorders only
// rounding).
func TestMapYieldOrderInsensitive(t *testing.T) {
	m := SODAMemoryMap(4)
	p := 3.7e-6
	want := MapYield(m, p)
	perms := [][]int{{5, 4, 3, 2, 1, 0}, {2, 0, 5, 1, 4, 3}, {1, 3, 5, 0, 2, 4}}
	for _, perm := range perms {
		shuffled := make([]Structure, len(m))
		for i, j := range perm {
			shuffled[i] = m[j]
		}
		got := MapYield(shuffled, p)
		if relDiff(got, want) > 1e-12 {
			t.Errorf("permuted map yield %v differs from %v", got, want)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestSODAMemoryMapGeometry ties the yield model's map to the
// architectural constants it claims to cover: every bit of SIMD memory,
// vector RF and XRAM configuration store, and nothing else.
func TestSODAMemoryMapGeometry(t *testing.T) {
	m := SODAMemoryMap(DefaultSpareRowsPerBank)
	if len(m) != soda.Banks+2 {
		t.Fatalf("map has %d structures, want %d", len(m), soda.Banks+2)
	}
	for i := 0; i < soda.Banks; i++ {
		b := m[i]
		if b.Rows != soda.BankRows || b.Cols != soda.BankLanes*WordBits {
			t.Errorf("bank %d geometry %dx%d", i, b.Rows, b.Cols)
		}
		if b.SpareRows != DefaultSpareRowsPerBank {
			t.Errorf("bank %d spares %d", i, b.SpareRows)
		}
		// One bank is 16 KB of 16-bit words.
		if got, want := b.Cells(), soda.BankRows*soda.BankLanes*WordBits; got != want {
			t.Errorf("bank %d is %d bits, want %d", i, got, want)
		}
		if err := b.Validate(); err != nil {
			t.Errorf("bank %d: %v", i, err)
		}
	}
	vrf := m[soda.Banks]
	if vrf.Name != "vrf" || vrf.Rows != soda.VRegs || vrf.Cols != soda.Lanes*WordBits || vrf.SpareRows != 0 {
		t.Errorf("vrf geometry %+v", vrf)
	}
	xr := m[soda.Banks+1]
	if xr.Name != "xram" || xr.Rows != soda.Lanes || xr.Cols != soda.Lanes*xram.DefaultSlots || xr.SpareRows != 0 {
		t.Errorf("xram geometry %+v", xr)
	}
	// Total: 4×16 KB banks + 8 KB vector RF + 128×128×16 crosspoint bits.
	want := soda.Banks*soda.BankRows*soda.BankLanes*WordBits +
		soda.VRegs*soda.Lanes*WordBits +
		soda.Lanes*soda.Lanes*xram.DefaultSlots
	if got := MapCells(m); got != want {
		t.Errorf("map covers %d cells, want %d", got, want)
	}
}

func TestWithSpareRows(t *testing.T) {
	m := New(tech.N90).WithSpareRows(3)
	for i := 0; i < soda.Banks; i++ {
		if m.Map[i].SpareRows != 3 {
			t.Errorf("bank %d spares %d after WithSpareRows(3)", i, m.Map[i].SpareRows)
		}
	}
	if m.Map[soda.Banks].SpareRows != 0 {
		t.Error("vrf gained spares")
	}
}

// TestRowCoverageConsistentWithStructure: a structure's yield is the
// pooled row coverage of the one repair model (sparing.Placement, a
// single cluster of all rows) at its row failure probability, and the
// SODA map's per-bank spares are the clustered case of the same model.
func TestRowCoverageConsistentWithStructure(t *testing.T) {
	const pCell = 1e-4
	s := Structure{Name: "t", Rows: 64, Cols: 128, SpareRows: 3}
	pooled := sparing.Placement{Lanes: 64, ClusterSize: 64, SparesPerCluster: 3}
	if got, want := s.Yield(pCell), pooled.IndependentCoverage(RowFailProb(pCell, 128)); relDiff(got, want) > 1e-12 {
		t.Errorf("structure yield %v != pooled coverage %v", got, want)
	}
	// Four banks with one private spare row each = four clusters of 16
	// across the concatenated row space.
	bank := Structure{Name: "bank", Rows: 16, Cols: 128, SpareRows: 1}
	banks := []Structure{bank, bank, bank, bank}
	clustered := sparing.Placement{Lanes: 64, ClusterSize: 16, SparesPerCluster: 1}
	if got, want := MapYield(banks, pCell), clustered.IndependentCoverage(RowFailProb(pCell, 128)); relDiff(got, want) > 1e-12 {
		t.Errorf("banked map yield %v != clustered coverage %v", got, want)
	}
}
