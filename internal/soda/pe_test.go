package soda

import (
	"strings"
	"testing"

	"github.com/ntvsim/ntvsim/internal/rng"
	"github.com/ntvsim/ntvsim/internal/xram"
)

// runProg executes a program on a fresh PE and returns it.
func runProg(t *testing.T, prog []Instruction) *PE {
	t.Helper()
	pe := NewPE()
	if err := pe.Run(prog, DefaultCycleBudget); err != nil {
		t.Fatal(err)
	}
	return pe
}

// vecOp runs op on two staged vector registers and returns the PE.
func vecOp(t *testing.T, op Opcode, a, b []uint16, imm int) *PE {
	t.Helper()
	pe := NewPE()
	copy(pe.VRF[1][:], a)
	copy(pe.VRF[2][:], b)
	prog := []Instruction{
		{Op: op, Dst: 0, A: 1, B: 2, Imm: imm},
		{Op: HALT},
	}
	if err := pe.Run(prog, 100); err != nil {
		t.Fatal(err)
	}
	return pe
}

func lanesOf(vals ...uint16) []uint16 {
	out := make([]uint16, Lanes)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	return out
}

func TestVectorALUSemantics(t *testing.T) {
	a := lanesOf(7, 0xFFFF, 100) // 7, -1, 100
	b := lanesOf(3, 2, 0xFF9C)   // 3, 2, -100
	cases := []struct {
		op   Opcode
		imm  int
		want [3]uint16 // expected lane values at positions 0,1,2
	}{
		{VADD, 0, [3]uint16{10, 1, 0}},
		{VSUB, 0, [3]uint16{4, 0xFFFD, 200}},
		{VMUL, 0, [3]uint16{21, 0xFFFE, 0xD8F0}}, // 100·(−100) = −10000 ≡ 0xD8F0
		{VAND, 0, [3]uint16{3, 2, 100 & 0xFF9C}},
		{VOR, 0, [3]uint16{7, 0xFFFF, 100 | 0xFF9C}},
		{VXOR, 0, [3]uint16{4, 0xFFFD, 100 ^ 0xFF9C}},
		{VMIN, 0, [3]uint16{3, 0xFFFF, 0xFF9C}}, // signed mins
		{VMAX, 0, [3]uint16{7, 2, 100}},
		{VCMPLT, 0, [3]uint16{0, 1, 0}},
	}
	for _, c := range cases {
		pe := vecOp(t, c.op, a, b, c.imm)
		for i, want := range c.want {
			if got := pe.VRF[0][i]; got != want {
				t.Errorf("%v lane %d = %#x, want %#x", c.op, i, got, want)
			}
		}
	}
}

func TestVectorShifts(t *testing.T) {
	a := lanesOf(0x8001)
	pe := vecOp(t, VSLL, a, nil, 1)
	if pe.VRF[0][0] != 0x0002 {
		t.Errorf("vsll = %#x", pe.VRF[0][0])
	}
	pe = vecOp(t, VSRL, a, nil, 1)
	if pe.VRF[0][0] != 0x4000 {
		t.Errorf("vsrl = %#x", pe.VRF[0][0])
	}
	pe = vecOp(t, VSRA, a, nil, 1)
	if pe.VRF[0][0] != 0xC000 { // arithmetic shift keeps sign
		t.Errorf("vsra = %#x", pe.VRF[0][0])
	}
}

func TestVMACAccumulates(t *testing.T) {
	pe := NewPE()
	copy(pe.VRF[1][:], lanesOf(3))
	copy(pe.VRF[2][:], lanesOf(4))
	prog := []Instruction{
		{Op: VXOR, Dst: 0, A: 0, B: 0}, // clear
		{Op: VMAC, Dst: 0, A: 1, B: 2},
		{Op: VMAC, Dst: 0, A: 1, B: 2},
		{Op: HALT},
	}
	if err := pe.Run(prog, 100); err != nil {
		t.Fatal(err)
	}
	if pe.VRF[0][5] != 24 {
		t.Errorf("double MAC = %d, want 24", pe.VRF[0][5])
	}
}

func TestVSELPicksByFlag(t *testing.T) {
	pe := NewPE()
	copy(pe.VRF[1][:], lanesOf(100)) // taken value
	copy(pe.VRF[2][:], lanesOf(200)) // else value
	copy(pe.VRF[0][:], lanesOf(1, 0))
	prog := []Instruction{{Op: VSEL, Dst: 0, A: 1, B: 2}, {Op: HALT}}
	if err := pe.Run(prog, 10); err != nil {
		t.Fatal(err)
	}
	if pe.VRF[0][0] != 100 || pe.VRF[0][1] != 200 {
		t.Errorf("vsel lanes = %d, %d", pe.VRF[0][0], pe.VRF[0][1])
	}
}

func TestVBcastAndReduce(t *testing.T) {
	b := NewBuilder()
	b.SLi(1, 21).
		VBcast(0, 1).
		VRedSum(2, 0).
		Halt()
	pe := runProg(t, b.MustProgram())
	if pe.VRF[0][127] != 21 {
		t.Error("broadcast missed lane 127")
	}
	if got := pe.SRF[2]; got != 21*Lanes {
		t.Errorf("redsum = %d, want %d", got, 21*Lanes)
	}
	if pe.Stats.TreeOps != 1 {
		t.Error("tree op not counted")
	}
}

func TestVREDGRPSegments(t *testing.T) {
	pe := NewPE()
	for l := 0; l < Lanes; l++ {
		pe.VRF[1][l] = 1
	}
	prog := []Instruction{{Op: VREDGRP, Dst: 0, A: 1, Imm: 3}, {Op: HALT}} // groups of 8
	if err := pe.Run(prog, 10); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < Lanes; l++ {
		if pe.VRF[0][l] != 8 {
			t.Fatalf("lane %d segment sum = %d, want 8", l, pe.VRF[0][l])
		}
	}
	bad := []Instruction{{Op: VREDGRP, Dst: 0, A: 1, Imm: 9}, {Op: HALT}}
	if err := NewPE().Run(bad, 10); err == nil {
		t.Error("group log2 9 accepted")
	}
}

func TestVSHUFUsesStoredConfig(t *testing.T) {
	pe := NewPE()
	if err := pe.SSN.Store(3, xram.Rotate(Lanes, 5)); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < Lanes; l++ {
		pe.VRF[1][l] = uint16(l)
	}
	prog := []Instruction{{Op: VSHUF, Dst: 0, A: 1, Imm: 3}, {Op: HALT}}
	if err := pe.Run(prog, 10); err != nil {
		t.Fatal(err)
	}
	if pe.VRF[0][0] != 5 || pe.VRF[0][127] != 4 {
		t.Error("rotate shuffle wrong")
	}
	if pe.Stats.SSNRoutes != 1 {
		t.Error("SSN route not counted")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.SLi(1, 9).
		SLi(2, 10).
		VLoad(0, 1).
		VStore(0, 2).
		Halt()
	pe := NewPE()
	row := lanesOf(3, 1, 4, 1, 5)
	if err := pe.Mem.WriteRow(9, row); err != nil {
		t.Fatal(err)
	}
	prog := b.MustProgram()
	if err := pe.Run(prog, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]uint16, Lanes)
	if err := pe.Mem.ReadRow(10, got); err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if got[i] != row[i] {
			t.Fatal("store mismatch")
		}
	}
	if pe.Stats.MemRowOps != 2 {
		t.Errorf("mem row ops = %d", pe.Stats.MemRowOps)
	}
}

func TestScalarLoop(t *testing.T) {
	// Sum 1..10 with a scalar loop.
	b := NewBuilder()
	b.SLi(1, 0). // acc
			SLi(2, 0).  // i
			SLi(3, 10). // limit
			Label("loop").
			SAddI(2, 2, 1).
			S3(SADD, 1, 1, 2).
			Branch(BNE, 2, 3, "loop").
			Halt()
	pe := runProg(t, b.MustProgram())
	if pe.SRF[1] != 55 {
		t.Errorf("sum = %d, want 55", pe.SRF[1])
	}
}

func TestScalarMemory(t *testing.T) {
	b := NewBuilder()
	b.SLi(1, 100). // address
			SLi(2, 777).
			SStore(2, 1, 5). // mem[105] = 777
			SLoad(3, 1, 5).
			Halt()
	pe := runProg(t, b.MustProgram())
	if pe.SMem[105] != 777 || pe.SRF[3] != 777 {
		t.Error("scalar memory round trip failed")
	}
}

func TestBLTSigned(t *testing.T) {
	b := NewBuilder()
	b.SLi(1, -5&0xFFFF).
		SLi(2, 3).
		SLi(3, 0).
		Branch(BLT, 1, 2, "less").
		SLi(3, 1). // not taken path
		Halt().
		Label("less").
		SLi(3, 2).
		Halt()
	pe := runProg(t, b.MustProgram())
	if pe.SRF[3] != 2 {
		t.Errorf("signed BLT not taken: s3 = %d", pe.SRF[3])
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		prog []Instruction
	}{
		{"bad vreg", []Instruction{{Op: VADD, Dst: 40, A: 0, B: 0}}},
		{"bad sreg", []Instruction{{Op: SLI, Dst: 20, Imm: 1}}},
		{"bad row", []Instruction{{Op: SLI, Dst: 1, Imm: 300}, {Op: VLOAD, Dst: 0, A: 1}}},
		{"bad scalar addr", []Instruction{{Op: SLI, Dst: 1, Imm: 3000}, {Op: SLD, Dst: 0, A: 1}}},
		{"bad shuffle slot", []Instruction{{Op: VSHUF, Dst: 0, A: 0, Imm: 99}}},
	}
	for _, c := range cases {
		pe := NewPE()
		if err := pe.Run(c.prog, 100); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestCycleBudgetOverrun(t *testing.T) {
	b := NewBuilder()
	b.Label("spin").Jmp("spin")
	pe := NewPE()
	err := pe.Run(b.MustProgram(), 50)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("infinite loop not caught: %v", err)
	}
}

func TestClockRatioChangesMemoryCost(t *testing.T) {
	prog := NewBuilder().SLi(1, 0).VLoad(0, 1).Halt().MustProgram()
	slow := NewPE()
	slow.Clock = ClockConfig{MemLatency: 4, ClockRatio: 1}
	if err := slow.Run(prog, 100); err != nil {
		t.Fatal(err)
	}
	fast := NewPE()
	fast.Clock = ClockConfig{MemLatency: 4, ClockRatio: 4} // NTV SIMD clock
	if err := fast.Run(prog, 100); err != nil {
		t.Fatal(err)
	}
	if slow.Stats.Cycles <= fast.Stats.Cycles {
		t.Errorf("memory at ratio 1 (%d cycles) should cost more SIMD cycles than ratio 4 (%d)",
			slow.Stats.Cycles, fast.Stats.Cycles)
	}
}

func TestErrorModelInjection(t *testing.T) {
	pe := NewPE()
	pe.Err = fixedPenalty{cycles: 3, errs: 2}
	pe.Rand = rng.New(1)
	prog := NewBuilder().V3(VADD, 0, 0, 0).V3(VADD, 0, 0, 0).Halt().MustProgram()
	if err := pe.Run(prog, 100); err != nil {
		t.Fatal(err)
	}
	if pe.Stats.TimingErrors != 4 || pe.Stats.RecoveryStall != 6 {
		t.Errorf("error stats = %+v", pe.Stats)
	}
	// Cycles: 2 vadds (1+3 each) + halt = 9.
	if pe.Stats.Cycles != 9 {
		t.Errorf("cycles = %d, want 9", pe.Stats.Cycles)
	}
}

type fixedPenalty struct{ cycles, errs int }

func (f fixedPenalty) Penalty(*rng.Stream) (int, int) { return f.cycles, f.errs }

func TestReset(t *testing.T) {
	pe := NewPE()
	pe.VRF[0][0] = 9
	pe.SRF[1] = 9
	pe.Stats.Cycles = 100
	if err := pe.Mem.WriteElem(0, 55); err != nil {
		t.Fatal(err)
	}
	pe.Reset()
	if pe.VRF[0][0] != 0 || pe.SRF[1] != 0 || pe.Stats.Cycles != 0 {
		t.Error("Reset did not clear registers/stats")
	}
	if v, _ := pe.Mem.ReadElem(0); v != 55 {
		t.Error("Reset should preserve memory")
	}
}

func TestIPC(t *testing.T) {
	s := Stats{Cycles: 10, Instructions: 5}
	if s.IPC() != 0.5 {
		t.Errorf("IPC = %v", s.IPC())
	}
	if (Stats{}).IPC() != 0 {
		t.Error("IPC of empty stats should be 0")
	}
}
