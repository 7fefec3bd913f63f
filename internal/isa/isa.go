// Package isa implements the RV32IM instruction set architecture: register
// naming, instruction representation, machine-code decoding and encoding, and
// disassembly.
//
// The package is the lowest substrate of the NACHO reproduction. The paper
// (Section 5) targets 32-bit RISC-V because of its configurability and open
// nature; this package models the same base ISA (RV32I) plus the M extension
// used by the benchmark programs.
package isa

import "fmt"

// Reg identifies one of the 32 general-purpose RISC-V integer registers.
type Reg uint8

// Architectural registers by ABI name. X0 is hardwired to zero.
const (
	Zero Reg = iota // x0: hardwired zero
	RA              // x1: return address
	SP              // x2: stack pointer
	GP              // x3: global pointer
	TP              // x4: thread pointer
	T0              // x5
	T1              // x6
	T2              // x7
	S0              // x8 / fp
	S1              // x9
	A0              // x10
	A1              // x11
	A2              // x12
	A3              // x13
	A4              // x14
	A5              // x15
	A6              // x16
	A7              // x17
	S2              // x18
	S3              // x19
	S4              // x20
	S5              // x21
	S6              // x22
	S7              // x23
	S8              // x24
	S9              // x25
	S10             // x26
	S11             // x27
	T3              // x28
	T4              // x29
	T5              // x30
	T6              // x31
)

// NumRegs is the number of general-purpose registers in RV32I.
const NumRegs = 32

var regNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// String returns the ABI name of the register (e.g. "sp" for x2).
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("x?%d", uint8(r))
}

// RegByName resolves both ABI names ("sp", "a0", "fp") and numeric names
// ("x2") to a register. The second result reports whether the name was known.
func RegByName(name string) (Reg, bool) {
	if name == "fp" {
		return S0, true
	}
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	if len(name) >= 2 && name[0] == 'x' {
		var n int
		if _, err := fmt.Sscanf(name[1:], "%d", &n); err == nil && n >= 0 && n < NumRegs {
			return Reg(n), true
		}
	}
	return 0, false
}

// Op enumerates every RV32IM operation the emulator executes. Pseudo
// operations used only by the assembler are not represented here; the
// assembler lowers them to these.
type Op uint8

// RV32I base integer instructions followed by the RV32M extension.
const (
	OpInvalid Op = iota

	// Upper-immediate and jumps.
	LUI
	AUIPC
	JAL
	JALR

	// Conditional branches.
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU

	// Loads.
	LB
	LH
	LW
	LBU
	LHU

	// Stores.
	SB
	SH
	SW

	// Integer register-immediate.
	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI

	// Integer register-register.
	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND

	// System.
	FENCE
	ECALL
	EBREAK

	// RV32M multiply/divide.
	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU

	numOps
)

var opNames = [...]string{
	OpInvalid: "invalid",
	LUI:       "lui", AUIPC: "auipc", JAL: "jal", JALR: "jalr",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLTU: "bltu", BGEU: "bgeu",
	LB: "lb", LH: "lh", LW: "lw", LBU: "lbu", LHU: "lhu",
	SB: "sb", SH: "sh", SW: "sw",
	ADDI: "addi", SLTI: "slti", SLTIU: "sltiu", XORI: "xori", ORI: "ori", ANDI: "andi",
	SLLI: "slli", SRLI: "srli", SRAI: "srai",
	ADD: "add", SUB: "sub", SLL: "sll", SLT: "slt", SLTU: "sltu",
	XOR: "xor", SRL: "srl", SRA: "sra", OR: "or", AND: "and",
	FENCE: "fence", ECALL: "ecall", EBREAK: "ebreak",
	MUL: "mul", MULH: "mulh", MULHSU: "mulhsu", MULHU: "mulhu",
	DIV: "div", DIVU: "divu", REM: "rem", REMU: "remu",
}

// String returns the assembler mnemonic for the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// IsLoad reports whether the operation reads data memory.
func (o Op) IsLoad() bool { return o >= LB && o <= LHU }

// IsStore reports whether the operation writes data memory.
func (o Op) IsStore() bool { return o >= SB && o <= SW }

// IsBranch reports whether the operation is a conditional branch.
func (o Op) IsBranch() bool { return o >= BEQ && o <= BGEU }

// IsALU reports whether the operation is straight-line register-only compute:
// it touches neither memory nor control flow, writes at most one register,
// and retires in exactly one base cycle. These are the operations the AOT
// engine may batch without consulting the memory system or the failure
// schedule (FENCE is excluded: it is a system operation, albeit a no-op
// here).
func (o Op) IsALU() bool {
	return o == LUI || o == AUIPC || (o >= ADDI && o <= AND) || (o >= MUL && o <= REMU)
}

// AccessSize returns the number of bytes a load or store transfers
// (1, 2 or 4), and 0 for non-memory operations.
func (o Op) AccessSize() int {
	switch o {
	case LB, LBU, SB:
		return 1
	case LH, LHU, SH:
		return 2
	case LW, SW:
		return 4
	}
	return 0
}

// Instr is a decoded RV32IM instruction. Imm carries the sign-extended
// immediate for I/S/B/U/J formats (for U-format it holds the already-shifted
// upper immediate, i.e. imm<<12).
type Instr struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

// String disassembles the instruction into conventional assembler syntax.
func (in Instr) String() string {
	switch {
	case in.Op == LUI, in.Op == AUIPC:
		return fmt.Sprintf("%s %s, 0x%x", in.Op, in.Rd, uint32(in.Imm)>>12)
	case in.Op == JAL:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case in.Op == JALR:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case in.Op.IsLoad():
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
	case in.Op.IsStore():
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case in.Op >= ADDI && in.Op <= SRAI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case in.Op >= ADD && in.Op <= AND || in.Op >= MUL && in.Op <= REMU:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	default:
		return in.Op.String()
	}
}
