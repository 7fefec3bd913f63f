package compile

import (
	"testing"

	"nacho/internal/isa"
)

// r is a plain general-purpose register shorthand for test programs.
func r(n int) isa.Reg { return isa.Reg(n) }

func compileOne(t *testing.T, instrs ...isa.Instr) *Program {
	t.Helper()
	return Compile(instrs)
}

func TestLowerSpecialization(t *testing.T) {
	cases := []struct {
		name string
		in   isa.Instr
		want Op
	}{
		{"alu", isa.Instr{Op: isa.ADDI, Rd: r(5), Rs1: r(6), Imm: 1}, Addi},
		{"alu to x0 is timed nop", isa.Instr{Op: isa.ADD, Rd: isa.Zero, Rs1: r(5), Rs2: r(6)}, TimedNop},
		{"addi to sp runs the stack guard", isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP, Imm: -16}, AddiSP},
		{"non-addi write to sp falls back", isa.Instr{Op: isa.ADD, Rd: isa.SP, Rs1: r(5), Rs2: r(6)}, RefStep},
		{"load", isa.Instr{Op: isa.LW, Rd: r(5), Rs1: r(6)}, Lw},
		{"load to x0 falls back", isa.Instr{Op: isa.LW, Rd: isa.Zero, Rs1: r(6)}, RefStep},
		{"load to sp falls back", isa.Instr{Op: isa.LW, Rd: isa.SP, Rs1: r(6)}, RefStep},
		{"store", isa.Instr{Op: isa.SB, Rs1: r(6), Rs2: r(7)}, Sb},
		{"jal links", isa.Instr{Op: isa.JAL, Rd: r(1)}, Jal},
		{"jal x0 is a plain jump", isa.Instr{Op: isa.JAL, Rd: isa.Zero}, Jmp},
		{"jal into sp falls back", isa.Instr{Op: isa.JAL, Rd: isa.SP}, RefStep},
		{"jalr links", isa.Instr{Op: isa.JALR, Rd: r(1), Rs1: r(5)}, Jalr},
		{"jalr x0 is a register jump", isa.Instr{Op: isa.JALR, Rd: isa.Zero, Rs1: r(1)}, JmpReg},
		{"fence is a timed nop", isa.Instr{Op: isa.FENCE}, TimedNop},
		{"ebreak halts", isa.Instr{Op: isa.EBREAK}, Halt},
		{"ecall falls back", isa.Instr{Op: isa.ECALL}, RefStep},
	}
	var produced [numOps]bool
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compileOne(t, tc.in)
			if got := p.Code[0].Op; got != tc.want {
				t.Fatalf("lowered op = %d, want %d", got, tc.want)
			}
		})
		produced[tc.want] = true
	}
	// Every isa operation with a general-purpose destination. A memory
	// opcode's tables must agree with the isa operation it came from.
	for o := isa.OpInvalid; o <= isa.REMU; o++ {
		got := compileOne(t, isa.Instr{Op: o, Rd: r(5), Rs1: r(6), Rs2: r(7)}).Code[0].Op
		produced[got] = true
		var shift uint8
		switch o {
		case isa.LB:
			shift = 24
		case isa.LH:
			shift = 16
		}
		if int(AccessSize[got]) != o.AccessSize() || SignShift[got] != shift {
			t.Errorf("%v lowers to op %d with AccessSize %d and SignShift %d, want %d and %d",
				o, got, AccessSize[got], SignShift[got], o.AccessSize(), shift)
		}
	}
	// An opcode no lowering produces is a dead case in the AOT engine.
	for o := RefStep; o < numOps; o++ {
		if !produced[o] {
			t.Errorf("no lowering produces IR opcode %d", o)
		}
	}
}

func TestBranchTargetResolution(t *testing.T) {
	nop := isa.Instr{Op: isa.ADDI, Rd: r(5), Rs1: r(5)}
	beq := func(imm int32) isa.Instr {
		return isa.Instr{Op: isa.BEQ, Rs1: r(5), Rs2: r(6), Imm: imm}
	}
	t.Run("forward and backward", func(t *testing.T) {
		p := compileOne(t, beq(8), nop, beq(-8))
		if got := p.Code[0].Target; got != 2 {
			t.Fatalf("forward target = %d, want 2", got)
		}
		if got := p.Code[2].Target; got != 0 {
			t.Fatalf("backward target = %d, want 0", got)
		}
	})
	t.Run("out of text", func(t *testing.T) {
		p := compileOne(t, beq(8), nop) // lands one past the end
		if got := p.Code[0].Target; got != InvalidTarget {
			t.Fatalf("target = %d, want InvalidTarget", got)
		}
	})
	t.Run("before text", func(t *testing.T) {
		p := compileOne(t, beq(-4), nop)
		if got := p.Code[0].Target; got != InvalidTarget {
			t.Fatalf("target = %d, want InvalidTarget", got)
		}
	})
	t.Run("misaligned", func(t *testing.T) {
		p := compileOne(t, beq(6), nop, nop)
		if got := p.Code[0].Target; got != InvalidTarget {
			t.Fatalf("target = %d, want InvalidTarget", got)
		}
		// The architectural byte offset must survive for the fallback path.
		if got := int32(p.Code[0].Imm); got != 6 {
			t.Fatalf("fallback imm = %d, want 6", got)
		}
	})
}

func TestALURunLengths(t *testing.T) {
	alu := isa.Instr{Op: isa.ADDI, Rd: r(5), Rs1: r(5), Imm: 1}
	p := compileOne(t, alu, alu, alu,
		isa.Instr{Op: isa.BEQ, Rs1: r(5), Rs2: r(6), Imm: -12},
		alu,
	)
	want := []uint32{3, 2, 1, 0, 1}
	for i, w := range want {
		if got := p.Code[i].Run; got != w {
			t.Fatalf("Run[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestStatsRefSteps(t *testing.T) {
	p := compileOne(t,
		isa.Instr{Op: isa.ECALL},
		isa.Instr{Op: isa.LW, Rd: isa.Zero, Rs1: r(6)},
		isa.Instr{Op: isa.ADDI, Rd: r(5), Rs1: r(5)},
	)
	refSteps := 0
	for _, in := range p.Code {
		if in.Op == RefStep {
			refSteps++
		}
	}
	if refSteps != 2 {
		t.Fatalf("RefStep slots = %d, want 2", refSteps)
	}
}
