package emu

import (
	"testing"

	"nacho/internal/isa"
)

// alu is shorthand for building test instruction sequences.
func alu(rd isa.Reg) isa.Instr {
	return isa.Instr{Op: isa.ADDI, Rd: rd, Rs1: rd, Imm: 1}
}

// runLengths returns the per-slot ALU run table the AOT engine batches by.
func runLengths(tx *Text) []uint32 {
	out := make([]uint32, len(tx.Compiled().Code))
	for i, in := range tx.Compiled().Code {
		out[i] = in.Run
	}
	return out
}

func TestAnalyzeEmptyText(t *testing.T) {
	tx := NewText(nil)
	if tx.Len() != 0 || len(tx.Compiled().Code) != 0 {
		t.Fatalf("empty text: Len=%d compiled slots=%d", tx.Len(), len(tx.Compiled().Code))
	}
}

func TestAnalyzeStraightLine(t *testing.T) {
	tx := NewText([]isa.Instr{
		alu(isa.Reg(5)),
		alu(isa.Reg(6)),
		alu(isa.Reg(7)),
	})
	for i, want := range []uint32{3, 2, 1} {
		if got := runLengths(tx)[i]; got != want {
			t.Fatalf("Run[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestAnalyzeBranchTargetBreaksNothing(t *testing.T) {
	// A backward branch into the middle of an ALU run: the run table is
	// unaffected, because it is valid from any entry index — falling through
	// a branch target is plain sequential execution.
	instrs := []isa.Instr{
		alu(isa.Reg(5)),
		alu(isa.Reg(6)), // branch target
		alu(isa.Reg(7)),
		{Op: isa.BLT, Rs1: isa.Reg(5), Rs2: isa.Reg(7), Imm: -8},
	}
	tx := NewText(instrs)
	for i, want := range []uint32{3, 2, 1, 0} {
		if got := runLengths(tx)[i]; got != want {
			t.Fatalf("Run[%d] = %d, want %d", i, got, want)
		}
	}
}
