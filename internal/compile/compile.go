// Package compile lowers decoded RV32IM text into a threaded-code IR: the
// ahead-of-time half of the emulator's compile/interpret split (the same
// shape as starlark-go's internal/compile bytecode feeding its interp loop).
//
// The IR is slot-for-slot parallel to the instruction stream: IR index i
// executes exactly the architectural instruction at textBase + 4*i. Lowering
// specializes each instruction once — operands pre-decoded into flat uint8
// register numbers, immediates pre-sign-extended into uint32, static branch
// and jump targets pre-resolved to IR indices, x0/sp destination handling
// baked into distinct opcodes — so the interpreter loop in internal/emu pays
// no per-step decode, no operand extraction, and no destination-register
// special-casing.
//
// The package is deliberately free of execution semantics: it imports only
// internal/isa and never touches the clock, the memory system, or the
// power-failure schedule. Anything it cannot specialize it lowers to RefStep,
// which the interpreter delegates to the reference step — so the reference
// interpreter remains the single behavioral specification.
package compile

import "nacho/internal/isa"

// Op enumerates the IR opcodes. RefStep (the zero value) delegates to the
// reference interpreter.
type Op uint8

const (
	// RefStep executes the slot's architectural instruction through the
	// reference interpreter's step: ECALL, unexecutable encodings, and the
	// rare operand shapes not worth specializing (loads targeting x0 or sp,
	// non-ADDI writes to sp, jumps linking into sp).
	RefStep Op = iota

	// Register-only ALU operations with Rd ∉ {x0, sp}: one base cycle, one
	// register write, no memory, no control flow. The block is contiguous so
	// membership is a single range compare (see isSimpleALU); these are the
	// only ops eligible for batched execution (Inst.Run).
	Lui
	Auipc
	Addi
	Slti
	Sltiu
	Xori
	Ori
	Andi
	Slli
	Srli
	Srai
	Add
	Sub
	Sll
	Slt
	Sltu
	Xor
	Srl
	Sra
	Or
	And
	Mul
	Mulh
	Mulhsu
	Mulhu
	Div
	Divu
	Rem
	Remu

	// TimedNop charges one base cycle and retires with no architectural
	// effect: ALU operations writing x0 (the write is discarded) and FENCE
	// (nothing to order on an in-order single-issue core).
	TimedNop
	// AddiSP is ADDI with Rd == sp: the stack-pointer update that runs the
	// emulator's stack guard and notifies the memory system's stack tracker.
	AddiSP
	// Halt is EBREAK: charge the base cycle, advance pc, halt cleanly.
	Halt

	// Control transfers. Target holds the pre-resolved IR index of the
	// static destination, or InvalidTarget when the destination falls
	// outside the text segment or is misaligned (the interpreter then
	// commits the architectural pc and lets the reference fetch produce the
	// identical out-of-text error). Imm keeps the byte offset for that
	// fallback. Jmp/JmpReg are the link-less (Rd == x0) forms of Jal/Jalr.
	Jmp
	Jal
	JmpReg
	Jalr
	Beq
	Bne
	Blt
	Bge
	Bltu
	Bgeu

	// Memory operations, one opcode per isa load and store, with Rd ∉ {x0, sp}
	// for loads. Imm is the address offset; AccessSize and SignShift give the
	// width and sign extension.
	Lb
	Lh
	Lw
	Lbu
	Lhu
	Sb
	Sh
	Sw

	numOps
)

// InvalidTarget marks a static control-flow destination outside the text
// segment (or misaligned): taking it must produce the reference fetch error.
const InvalidTarget = ^uint32(0)

// isSimpleALU reports whether the opcode is a specialized register-only ALU
// operation (batchable: no memory, no control, Rd ∉ {x0, sp}).
func isSimpleALU(o Op) bool { return o >= Lui && o <= Remu }

// Inst is one IR slot: a fully pre-decoded instruction the interpreter
// executes without consulting the original encoding.
type Inst struct {
	Op           Op
	Rd, Rs1, Rs2 uint8
	Imm          uint32 // pre-sign-extended immediate (meaning per opcode)
	Target       uint32 // pre-resolved IR index for static control flow
	Run          uint32 // length of the simple-ALU run starting here (0 if this slot is not simple ALU)
}

// Program is a compiled text segment. Code is slot-for-slot parallel to the
// instruction stream: Code[i] executes the instruction at textBase + 4*i.
type Program struct {
	Code []Inst
}

// aluOp maps an isa ALU opcode to its specialized IR opcode.
var aluOp = [...]Op{
	isa.LUI: Lui, isa.AUIPC: Auipc,
	isa.ADDI: Addi, isa.SLTI: Slti, isa.SLTIU: Sltiu, isa.XORI: Xori,
	isa.ORI: Ori, isa.ANDI: Andi, isa.SLLI: Slli, isa.SRLI: Srli, isa.SRAI: Srai,
	isa.ADD: Add, isa.SUB: Sub, isa.SLL: Sll, isa.SLT: Slt, isa.SLTU: Sltu,
	isa.XOR: Xor, isa.SRL: Srl, isa.SRA: Sra, isa.OR: Or, isa.AND: And,
	isa.MUL: Mul, isa.MULH: Mulh, isa.MULHSU: Mulhsu, isa.MULHU: Mulhu,
	isa.DIV: Div, isa.DIVU: Divu, isa.REM: Rem, isa.REMU: Remu,
}

var loadOp = [...]Op{isa.LB: Lb, isa.LH: Lh, isa.LW: Lw, isa.LBU: Lbu, isa.LHU: Lhu}
var storeOp = [...]Op{isa.SB: Sb, isa.SH: Sh, isa.SW: Sw}
var branchOp = [...]Op{isa.BEQ: Beq, isa.BNE: Bne, isa.BLT: Blt, isa.BGE: Bge, isa.BLTU: Bltu, isa.BGEU: Bgeu}

// AccessSize is each memory opcode's access width in bytes. The AOT engine
// runs every load through one case and every store through another, and
// reads the width from here.
var AccessSize = [numOps]uint8{Lb: 1, Lh: 2, Lw: 4, Lbu: 1, Lhu: 2, Sb: 1, Sh: 2, Sw: 4}

// SignShift is the shift that sign-extends a loaded value (v<<s, then an
// arithmetic >>s): 24 for Lb, 16 for Lh, and 0 for every other opcode.
var SignShift = [numOps]uint8{Lb: 24, Lh: 16}

// Compile lowers a decoded instruction sequence into its IR program. The
// input is not retained.
func Compile(instrs []isa.Instr) *Program {
	n := len(instrs)
	p := &Program{Code: make([]Inst, n)}
	for i := range instrs {
		p.Code[i] = lower(&instrs[i], i, n)
	}
	// ALU run lengths, right to left, so each slot is O(1): Run counts
	// the consecutive simple-ALU slots starting at i.
	for i := n - 1; i >= 0; i-- {
		if isSimpleALU(p.Code[i].Op) {
			p.Code[i].Run = 1
			if i+1 < n {
				p.Code[i].Run += p.Code[i+1].Run
			}
		}
	}
	return p
}

// target resolves a static control-flow destination (byte offset imm from
// slot i) to an IR index, or InvalidTarget if it leaves the text segment or
// is misaligned.
func target(i int, imm int32, n int) uint32 {
	if imm%4 != 0 {
		return InvalidTarget
	}
	t := int64(i) + int64(imm)/4
	if t < 0 || t >= int64(n) {
		return InvalidTarget
	}
	return uint32(t)
}

// lower specializes one instruction into its IR slot.
func lower(in *isa.Instr, i, n int) Inst {
	rd, rs1, rs2 := uint8(in.Rd), uint8(in.Rs1), uint8(in.Rs2)
	imm := uint32(in.Imm)
	op := in.Op
	switch {
	case op.IsALU():
		switch in.Rd {
		case isa.Zero:
			return Inst{Op: TimedNop}
		case isa.SP:
			if op == isa.ADDI {
				return Inst{Op: AddiSP, Rd: rd, Rs1: rs1, Imm: imm}
			}
			return Inst{Op: RefStep}
		}
		return Inst{Op: aluOp[op], Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
	case op.IsLoad():
		if in.Rd == isa.Zero || in.Rd == isa.SP {
			return Inst{Op: RefStep}
		}
		return Inst{Op: loadOp[op], Rd: rd, Rs1: rs1, Imm: imm}
	case op.IsStore():
		return Inst{Op: storeOp[op], Rs1: rs1, Rs2: rs2, Imm: imm}
	case op.IsBranch():
		return Inst{Op: branchOp[op], Rs1: rs1, Rs2: rs2, Imm: imm, Target: target(i, in.Imm, n)}
	case op == isa.JAL:
		if in.Rd == isa.SP {
			return Inst{Op: RefStep}
		}
		o := Jal
		if in.Rd == isa.Zero {
			o = Jmp
		}
		return Inst{Op: o, Rd: rd, Imm: imm, Target: target(i, in.Imm, n)}
	case op == isa.JALR:
		if in.Rd == isa.SP {
			return Inst{Op: RefStep}
		}
		o := Jalr
		if in.Rd == isa.Zero {
			o = JmpReg
		}
		return Inst{Op: o, Rd: rd, Rs1: rs1, Imm: imm}
	case op == isa.FENCE:
		return Inst{Op: TimedNop}
	case op == isa.EBREAK:
		return Inst{Op: Halt}
	default: // ECALL, OpInvalid, and anything unrecognized
		return Inst{Op: RefStep}
	}
}
