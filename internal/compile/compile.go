// Package compile lowers decoded RV32IM text into a threaded-code IR: the
// ahead-of-time half of the emulator's compile/interpret split (the same
// shape as starlark-go's internal/compile bytecode feeding its interp loop).
//
// The IR is slot-for-slot parallel to the instruction stream: IR index i
// describes the architectural instruction at textBase + 4*i. Lowering
// specializes each instruction once — operands pre-decoded into flat uint8
// register numbers, immediates pre-sign-extended into uint32, static branch
// and jump targets pre-resolved to IR indices, x0/sp destination handling
// baked into distinct opcodes — so the interpreter loop in internal/emu pays
// no per-step decode, no operand extraction, and no destination-register
// special-casing.
//
// A fusion pass additionally forms two-instruction superinstructions
// (lui+addi constant synthesis, addi+load/store address generation, and
// slt-family compare-and-branch). A fused opcode occupies the slot of its
// first instruction and performs the architectural work of both; the second
// slot keeps its plain lowering so control flow may still enter there
// directly. Because every executed slot performs exactly the architectural
// instruction(s) it covers and then transfers to the correct successor slot,
// overlapping fusion opportunities need no conflict resolution.
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

	// Memory operations, specialized by width and (for loads) sign
	// extension, with Rd ∉ {x0, sp} for loads. Imm is the address offset.
	Lb
	Lh
	Lw
	Lbu
	Lhu
	Sb
	Sh
	Sw

	// Fused superinstructions: each covers the architectural instructions of
	// its own slot and the next (Width == 2).

	// LuiAddi is "lui rd, hi" + "addi rd, rd, lo" — constant synthesis. Imm
	// holds the final constant, computed at compile time.
	LuiAddi

	// AddiL*/AddiS* fuse address generation into the memory access:
	// "addi rt, rb, imm1" + a load/store whose base is rt. The addi still
	// commits rt (it is architecturally visible). Field layout: Rs1 = rb,
	// Rs2 = rt, Imm = imm1, Target = the memory op's offset (imm2), and
	// Rd = the load destination / the store value register.
	AddiLb
	AddiLh
	AddiLw
	AddiLbu
	AddiLhu
	AddiSb
	AddiSh
	AddiSw

	// Slt*B* fuse a compare into the following branch-on-zero:
	// "slt/sltu/slti/sltiu rd, ..." + "bne/beq rd, x0" (either operand
	// order). The compare still commits rd. Target is always a valid IR
	// index — fusion is skipped otherwise. Immediate forms carry the compare
	// immediate in Imm.
	SltBne
	SltuBne
	SltBeq
	SltuBeq
	SltiBne
	SltiuBne
	SltiBeq
	SltiuBeq

	numOps
)

// InvalidTarget marks a static control-flow destination outside the text
// segment (or misaligned): taking it must produce the reference fetch error.
const InvalidTarget = ^uint32(0)

// Width is the number of architectural instructions the opcode covers: 2 for
// fused superinstructions, 1 otherwise.
func (o Op) Width() uint32 {
	if o >= LuiAddi {
		return 2
	}
	return 1
}

// isSimpleALU reports whether the opcode is a specialized register-only ALU
// operation (batchable: no memory, no control, Rd ∉ {x0, sp}).
func isSimpleALU(o Op) bool { return o >= Lui && o <= Remu }

// Inst is one IR slot: a fully pre-decoded instruction (or superinstruction)
// the interpreter executes without consulting the original encoding.
type Inst struct {
	Op           Op
	Rd, Rs1, Rs2 uint8
	Imm          uint32 // pre-sign-extended immediate (meaning per opcode)
	Target       uint32 // pre-resolved IR index for static control flow / second immediate for fused memory ops
	Run          uint32 // length of the simple-ALU run starting here (0 if this slot is not simple ALU)
}

// Stats summarizes one compilation, for tests and tooling.
type Stats struct {
	Fused     int // slots holding a two-instruction superinstruction
	Batchable int // slots eligible for batched ALU execution
	RefSteps  int // slots delegated to the reference interpreter
}

// Program is a compiled text segment. Code is slot-for-slot parallel to the
// instruction stream: Code[i] executes the instruction at textBase + 4*i.
type Program struct {
	Code  []Inst
	Stats Stats
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
var fusedLoadOp = [...]Op{isa.LB: AddiLb, isa.LH: AddiLh, isa.LW: AddiLw, isa.LBU: AddiLbu, isa.LHU: AddiLhu}
var fusedStoreOp = [...]Op{isa.SB: AddiSb, isa.SH: AddiSh, isa.SW: AddiSw}

// cmpBranchOp[cmp][branch] maps a fusible compare × branch pair; cmp indexed
// 0..3 = SLT, SLTU, SLTI, SLTIU and branch 0..1 = BNE, BEQ.
var cmpBranchOp = [4][2]Op{
	{SltBne, SltBeq},
	{SltuBne, SltuBeq},
	{SltiBne, SltiBeq},
	{SltiuBne, SltiuBeq},
}

// Compile lowers a decoded instruction sequence into its IR program. The
// input is not retained.
func Compile(instrs []isa.Instr) *Program {
	n := len(instrs)
	p := &Program{Code: make([]Inst, n)}
	for i := range instrs {
		p.Code[i] = lower(&instrs[i], i, n)
	}
	for i := 0; i+1 < n; i++ {
		if f, ok := fuse(&instrs[i], &instrs[i+1], i, n); ok {
			p.Code[i] = f
			p.Stats.Fused++
		}
	}
	// ALU run lengths, right to left, so each slot is O(1): Run counts
	// the consecutive simple-ALU slots starting at i. Fused slots are never
	// simple ALU, so runs neither include nor jump over them, and a slot
	// shadowed by a preceding fused op still carries its own run for direct
	// branch entry.
	for i := n - 1; i >= 0; i-- {
		switch {
		case isSimpleALU(p.Code[i].Op):
			p.Code[i].Run = 1
			if i+1 < n {
				p.Code[i].Run += p.Code[i+1].Run
			}
			p.Stats.Batchable++
		case p.Code[i].Op == RefStep:
			p.Stats.RefSteps++
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

// gpr reports whether r is a general-purpose destination the specialized ops
// may write directly (not x0, whose writes are discarded, and not sp, whose
// writes run the stack guard).
func gpr(r isa.Reg) bool { return r != isa.Zero && r != isa.SP }

// fuse recognizes a two-instruction superinstruction at slots (i, i+1).
func fuse(a, b *isa.Instr, i, n int) (Inst, bool) {
	switch {
	case a.Op == isa.LUI && gpr(a.Rd) &&
		b.Op == isa.ADDI && b.Rd == a.Rd && b.Rs1 == a.Rd:
		return Inst{Op: LuiAddi, Rd: uint8(a.Rd), Imm: uint32(a.Imm) + uint32(b.Imm)}, true

	case a.Op == isa.ADDI && gpr(a.Rd) && b.Rs1 == a.Rd:
		switch {
		case b.Op.IsLoad() && gpr(b.Rd):
			return Inst{Op: fusedLoadOp[b.Op], Rd: uint8(b.Rd),
				Rs1: uint8(a.Rs1), Rs2: uint8(a.Rd),
				Imm: uint32(a.Imm), Target: uint32(b.Imm)}, true
		case b.Op.IsStore():
			return Inst{Op: fusedStoreOp[b.Op], Rd: uint8(b.Rs2),
				Rs1: uint8(a.Rs1), Rs2: uint8(a.Rd),
				Imm: uint32(a.Imm), Target: uint32(b.Imm)}, true
		}

	case (a.Op == isa.SLT || a.Op == isa.SLTU || a.Op == isa.SLTI || a.Op == isa.SLTIU) &&
		gpr(a.Rd) && (b.Op == isa.BEQ || b.Op == isa.BNE):
		// bnez/beqz on the compare result, either operand order. Fuse only
		// when the branch target resolves: the InvalidTarget fallback needs
		// the plain branch's byte offset, which the fused encoding spends on
		// the compare immediate.
		if !((b.Rs1 == a.Rd && b.Rs2 == isa.Zero) || (b.Rs2 == a.Rd && b.Rs1 == isa.Zero)) {
			return Inst{}, false
		}
		tgt := target(i+1, b.Imm, n)
		if tgt == InvalidTarget {
			return Inst{}, false
		}
		var ci int
		switch a.Op {
		case isa.SLT:
			ci = 0
		case isa.SLTU:
			ci = 1
		case isa.SLTI:
			ci = 2
		default:
			ci = 3
		}
		bi := 0
		if b.Op == isa.BEQ {
			bi = 1
		}
		return Inst{Op: cmpBranchOp[ci][bi], Rd: uint8(a.Rd),
			Rs1: uint8(a.Rs1), Rs2: uint8(a.Rs2),
			Imm: uint32(a.Imm), Target: tgt}, true
	}
	return Inst{}, false
}
