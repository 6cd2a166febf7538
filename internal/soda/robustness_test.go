package soda

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/ntvsim/ntvsim/internal/rng"
)

// TestRandomProgramsNeverPanic: arbitrary instruction streams — valid
// or garbage — must either execute or return an error; the PE must
// never panic and never corrupt its ability to run again.
func TestRandomProgramsNeverPanic(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.IntN(30)
		prog := make([]Instruction, n)
		for i := range prog {
			prog[i] = Instruction{
				Op:  Opcode(r.IntN(110)),
				Dst: r.IntN(40) - 2,
				A:   r.IntN(40) - 2,
				B:   r.IntN(40) - 2,
				Imm: r.IntN(600) - 100,
			}
		}
		pe := NewPE()
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: PE panicked: %v\nprogram: %v", trial, p, prog)
				}
			}()
			_ = pe.Run(prog, 2000) // error or success, both fine
		}()
		// The PE must still work after whatever happened.
		if err := pe.Run([]Instruction{{Op: HALT}}, 10); err != nil {
			t.Fatalf("trial %d: PE unusable after random program: %v", trial, err)
		}
	}
}

// TestAssembleNeverPanics: arbitrary text must parse or error, not panic.
func TestAssembleNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("Assemble panicked on %q: %v", src, p)
			}
		}()
		_, _ = Assemble(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Adversarial hand-picked inputs.
	for _, src := range []string{
		"vadd", "vadd ,", "vadd v, v, v", "sld s1, (", "sld s1, ()",
		"sld s1, (s1+", "sli s1, 999999999999999999999",
		strings.Repeat("nop\n", 10000), "::", "x y z", "\x00\xff",
		"vload v1, (s-1)", "sagu -1, s0, s0",
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("Assemble panicked on %q: %v", src, p)
				}
			}()
			_, _ = Assemble(src)
		}()
	}
}

// TestDisassembleParseable: every instruction a built-in kernel emits
// disassembles to text the assembler accepts (branch-free kernels).
func TestDisassembleParseable(t *testing.T) {
	r := rng.New(5)
	kernels := []Kernel{
		ScaleAddKernel(randVec(r, Lanes, 10), randVec(r, Lanes, 10), 2),
		FIRKernel(randVec(r, Lanes, 10), []int16{1, -1}),
		RGBToYCbCrKernel(randVec(r, Lanes, 10), randVec(r, Lanes, 10), randVec(r, Lanes, 10)),
		DCT8Kernel(make([]int16, Lanes)),
		FFTKernel(make([]int16, Lanes), make([]int16, Lanes)),
	}
	for _, k := range kernels {
		var b strings.Builder
		for _, in := range k.Program {
			b.WriteString(in.String())
			b.WriteByte('\n')
		}
		if _, err := Assemble(b.String()); err != nil {
			t.Errorf("%s: disassembly not reparseable: %v", k.Name, err)
		}
	}
}
