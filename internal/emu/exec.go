package emu

import (
	"fmt"

	"nacho/internal/isa"
)

// step executes one instruction. Effects are ordered so that a power failure
// (panic out of any Advance) leaves the architectural register state and PC
// untouched: base cycle first, then memory effects, then register/PC commit.
func (m *Machine) step() error {
	in, err := m.fetch()
	if err != nil {
		return err
	}
	issue := m.cycle
	m.Advance(1) // base cycle (in-order single-issue pipeline)
	m.c.Instructions++
	if m.trace != nil {
		// The line carries the issue instant, matching the historical trace
		// format; it waits until the base cycle is charged so an instruction
		// killed by a power failure in that cycle never appears retired.
		m.trace.Retire(issue, m.pc, in)
	}

	rs1 := m.regs[in.Rs1]
	rs2 := m.regs[in.Rs2]
	imm := uint32(in.Imm)
	next := m.pc + 4

	switch in.Op {
	case isa.LUI:
		m.setReg(in.Rd, imm)
	case isa.AUIPC:
		m.setReg(in.Rd, m.pc+imm)
	case isa.JAL:
		m.setReg(in.Rd, next)
		next = m.pc + imm
	case isa.JALR:
		t := next
		next = (rs1 + imm) &^ 1
		m.setReg(in.Rd, t)

	case isa.BEQ:
		if rs1 == rs2 {
			next = m.pc + imm
		}
	case isa.BNE:
		if rs1 != rs2 {
			next = m.pc + imm
		}
	case isa.BLT:
		if int32(rs1) < int32(rs2) {
			next = m.pc + imm
		}
	case isa.BGE:
		if int32(rs1) >= int32(rs2) {
			next = m.pc + imm
		}
	case isa.BLTU:
		if rs1 < rs2 {
			next = m.pc + imm
		}
	case isa.BGEU:
		if rs1 >= rs2 {
			next = m.pc + imm
		}

	case isa.LB, isa.LH, isa.LW, isa.LBU, isa.LHU:
		m.c.Loads++
		addr := rs1 + imm
		size := in.Op.AccessSize()
		v, err := m.load(addr, size)
		if err != nil {
			return err
		}
		switch in.Op {
		case isa.LB:
			v = uint32(int32(v<<24) >> 24)
		case isa.LH:
			v = uint32(int32(v<<16) >> 16)
		}
		m.setReg(in.Rd, v)

	case isa.SB, isa.SH, isa.SW:
		m.c.Stores++
		addr := rs1 + imm
		if err := m.store(addr, in.Op.AccessSize(), rs2); err != nil {
			return err
		}

	case isa.ADDI:
		m.setReg(in.Rd, rs1+imm)
	case isa.SLTI:
		m.setReg(in.Rd, boolToU32(int32(rs1) < int32(imm)))
	case isa.SLTIU:
		m.setReg(in.Rd, boolToU32(rs1 < imm))
	case isa.XORI:
		m.setReg(in.Rd, rs1^imm)
	case isa.ORI:
		m.setReg(in.Rd, rs1|imm)
	case isa.ANDI:
		m.setReg(in.Rd, rs1&imm)
	case isa.SLLI:
		m.setReg(in.Rd, rs1<<(imm&31))
	case isa.SRLI:
		m.setReg(in.Rd, rs1>>(imm&31))
	case isa.SRAI:
		m.setReg(in.Rd, uint32(int32(rs1)>>(imm&31)))

	case isa.ADD:
		m.setReg(in.Rd, rs1+rs2)
	case isa.SUB:
		m.setReg(in.Rd, rs1-rs2)
	case isa.SLL:
		m.setReg(in.Rd, rs1<<(rs2&31))
	case isa.SLT:
		m.setReg(in.Rd, boolToU32(int32(rs1) < int32(rs2)))
	case isa.SLTU:
		m.setReg(in.Rd, boolToU32(rs1 < rs2))
	case isa.XOR:
		m.setReg(in.Rd, rs1^rs2)
	case isa.SRL:
		m.setReg(in.Rd, rs1>>(rs2&31))
	case isa.SRA:
		m.setReg(in.Rd, uint32(int32(rs1)>>(rs2&31)))
	case isa.OR:
		m.setReg(in.Rd, rs1|rs2)
	case isa.AND:
		m.setReg(in.Rd, rs1&rs2)

	case isa.MUL:
		m.setReg(in.Rd, rs1*rs2)
	case isa.MULH:
		m.setReg(in.Rd, uint32(uint64(int64(int32(rs1))*int64(int32(rs2)))>>32))
	case isa.MULHSU:
		m.setReg(in.Rd, uint32(uint64(int64(int32(rs1))*int64(rs2))>>32))
	case isa.MULHU:
		m.setReg(in.Rd, uint32(uint64(rs1)*uint64(rs2)>>32))
	case isa.DIV:
		m.setReg(in.Rd, divSigned(rs1, rs2))
	case isa.DIVU:
		if rs2 == 0 {
			m.setReg(in.Rd, ^uint32(0))
		} else {
			m.setReg(in.Rd, rs1/rs2)
		}
	case isa.REM:
		m.setReg(in.Rd, remSigned(rs1, rs2))
	case isa.REMU:
		if rs2 == 0 {
			m.setReg(in.Rd, rs1)
		} else {
			m.setReg(in.Rd, rs1%rs2)
		}

	case isa.FENCE:
		// No memory reordering to order.
	case isa.EBREAK:
		// Clean halt (debug breakpoint doubles as "end of program").
		m.halted = true
	case isa.ECALL:
		return fmt.Errorf("emu: unsupported ecall at pc 0x%08x", m.pc)
	default:
		return fmt.Errorf("emu: unexecutable op %v at pc 0x%08x", in.Op, m.pc)
	}

	m.pc = next
	return nil
}

func boolToU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func divSigned(a, b uint32) uint32 {
	sa, sb := int32(a), int32(b)
	switch {
	case sb == 0:
		return ^uint32(0)
	case sa == -1<<31 && sb == -1:
		return a
	default:
		return uint32(sa / sb)
	}
}

func remSigned(a, b uint32) uint32 {
	sa, sb := int32(a), int32(b)
	switch {
	case sb == 0:
		return a
	case sa == -1<<31 && sb == -1:
		return 0
	default:
		return uint32(sa % sb)
	}
}
