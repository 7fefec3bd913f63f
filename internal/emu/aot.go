package emu

import (
	"fmt"

	"nacho/internal/compile"
	"nacho/internal/power"
)

// This file is the AOT execution engine: the interpreter half of the
// compile/interpret split. internal/compile lowers the text segment once —
// at DecodeText time — into a threaded-code IR (pre-decoded operands,
// pre-resolved branch targets, per-slot ALU run lengths), one slot per
// instruction; this loop executes that IR with no per-step decode and no
// fetch bounds check on sequential flow. Memory accesses take the reference
// interpreter's own path (Machine.load and Machine.store), so both engines
// reach the memory system, and emit MMIO events, the same way.
//
// Correctness rests on a safe-horizon argument, which the cost model's
// determinism makes possible. The outer loop (runSliceAOT) runs the exact
// per-boundary checks of runSliceRef. Before entering the inline dispatch
// loop it computes a guard (aotGuard): the smallest cycle at which any
// boundary event — power failure, cycle budget, forced-checkpoint trigger,
// RunUntil stop-point — could fire. Below the guard every boundary check is
// statically false, so the inline loop may charge base cycles with a bare
// increment and skip the checks entirely; the moment the guard trips
// (including after a memory access whose dynamic cost jumped the clock), the
// loop commits the pc and returns to the outer checks, which fire the event
// at the byte-identical instant with byte-identical state. Anything the IR
// does not specialize executes through the reference step (stepChecked), and
// the machine commits m.pc before every call that can advance the clock, so
// checkpoint register snapshots and mid-access power failures observe
// exactly the reference interpreter's in-flight state. The engine-equivalence
// suite in internal/harness enforces all of this rather than trusting the
// argument.
//
// For speed the dispatch loop mirrors the cycle and instruction counters in
// local variables (registers), so guard checks and base-cycle charging never
// touch memory. The mirrors are flushed to the machine before every external
// call, return, and power-failure panic, and reloaded after every call that
// can advance the clock — external code and post-slice inspection only ever
// see the authoritative fields in a consistent, reference-identical state.
// The load case and the store case are each one such call: commit the
// mirrors, call the shared load or store, reload the mirrors.

// guardInputs is the machine state aotGuard reads, so the safe-horizon
// arithmetic is a pure function pinned by table-driven tests.
type guardInputs struct {
	cycle       uint64
	failEnabled bool
	nextFailure uint64
	maxCycles   uint64 // 0 = unbounded
	maxInstr    uint64 // >= 1 (New defaults it)
	period      uint64 // 0 = no forced checkpoints
	margin      uint64
	nextForced  uint64
	stopAt      uint64 // 0 = no RunUntil bound
}

// aotGuard returns the inline window's bounds: while the cycle counter stays
// strictly below cycleGuard and the instruction counter strictly below
// instrGuard, no per-boundary event can fire before the next instruction
// retires. A cycleGuard at or below the current cycle means the window is
// empty and the next instruction must take the reference step, which raises
// the power failure, forced checkpoint, or error at the exact same instant
// with the exact same state. Each bound mirrors one runSliceRef check. All
// cycle arithmetic saturates: near-2^64 inputs (NoFailure-adjacent cycles,
// margin exceeding nextForced) must shrink the window, never wrap to a huge
// bogus one.
func aotGuard(in guardInputs) (cycleGuard, instrGuard uint64) {
	instrGuard = in.maxInstr
	u := uint64(power.NoFailure)
	if in.failEnabled {
		if in.nextFailure <= in.cycle {
			return 0, instrGuard
		}
		// Base cycles inside the window must stay strictly before the
		// failure instant (Advance panics at nextFailure).
		u = in.nextFailure - 1
	}
	if in.maxCycles > 0 && in.maxCycles < u {
		u = in.maxCycles
	}
	if in.period > 0 && in.nextForced != power.NoFailure {
		// The trigger fires once satAdd(cycle, margin) >= nextForced, so
		// the window ends at nextForced-margin; when margin reaches
		// nextForced the window is empty.
		t := uint64(0)
		if in.margin < in.nextForced {
			t = in.nextForced - in.margin
		}
		if t < u {
			u = t
		}
	}
	if in.stopAt != 0 && in.stopAt < u {
		u = in.stopAt
	}
	return u, instrGuard
}

// runSliceAOT executes the compiled IR until halt or the next power failure.
// The loop structure and every per-boundary check mirror runSliceRef
// line for line; only the step in the middle differs.
func (m *Machine) runSliceAOT() error {
	prog := m.prog
	if prog == nil || len(prog.Code) == 0 {
		return m.runSliceRef()
	}
	var (
		maxInstr  = m.cfg.MaxInstructions
		maxCycles = m.cfg.MaxCycles
		period    = m.cfg.ForcedCheckpointPeriod
		margin    = m.forcedMargin
		code      = prog.Code
	)
	for !m.halted {
		if m.stopAt != 0 && m.cycle >= m.stopAt {
			return nil
		}
		if m.c.Instructions >= maxInstr {
			return fmt.Errorf("emu: instruction limit %d exceeded at pc=0x%08x", maxInstr, m.pc)
		}
		if maxCycles > 0 && m.cycle >= maxCycles {
			return fmt.Errorf("emu: %w (%d cycles) at pc=0x%08x", ErrCycleBudget, maxCycles, m.pc)
		}
		if period > 0 && m.nextForced != power.NoFailure && satAdd(m.cycle, margin) >= m.nextForced {
			m.sys.ForceCheckpoint()
			for m.nextForced != power.NoFailure && m.nextForced <= satAdd(m.cycle, margin) {
				m.nextForced = satAdd(m.nextForced, period)
			}
			if err := m.stepChecked(); err != nil {
				return err
			}
			continue
		}
		cycleGuard, instrGuard := aotGuard(guardInputs{
			cycle:       m.cycle,
			failEnabled: m.failEnabled,
			nextFailure: m.nextFailure,
			maxCycles:   maxCycles,
			maxInstr:    maxInstr,
			period:      period,
			margin:      margin,
			nextForced:  m.nextForced,
			stopAt:      m.stopAt,
		})
		if m.cycle >= cycleGuard || m.c.Instructions >= instrGuard {
			// Inside the unsafe horizon: the reference step raises the
			// event (or executes the final pre-event instructions) exactly
			// as runSliceRef would.
			if err := m.stepChecked(); err != nil {
				return err
			}
			continue
		}
		if err := m.execAOT(code, cycleGuard, instrGuard); err != nil {
			return err
		}
	}
	return nil
}

// execAOT is the inline dispatch loop. Entry contract: m.cycle < cycleGuard
// and m.c.Instructions < instrGuard (so at least one instruction executes),
// no trace is attached, and m.pc is the next instruction to execute. The
// loop keeps pc, the cycle counter, and the instruction counter in locals
// and commits them to the machine before anything that can observe it
// (memory systems, NotifySP, the reference step, the PowerFail panic) and
// at every exit. It returns nil when the guard trips, control leaves the
// text segment (the outer loop's reference step then reports the identical
// fetch error), or the program halts.
func (m *Machine) execAOT(code []compile.Inst, cycleGuard, instrGuard uint64) error {
	var (
		regs     = &m.regs
		textBase = m.textBase
		nCode    = uint32(len(code))
	)
	pc := m.pc
	off := pc - textBase
	if pc%4 != 0 || off>>2 >= nCode {
		return m.stepChecked() // identical out-of-text fetch error
	}
	idx := off >> 2
	cyc := m.cycle
	ins := m.c.Instructions
	for {
		// idx == nCode when sequential flow ran off the end of the text
		// segment; the outer loop's reference step reports the fetch error.
		if idx >= nCode || cyc >= cycleGuard || ins >= instrGuard {
			m.cycle, m.c.Instructions, m.pc = cyc, ins, pc
			return nil
		}
		op := &code[idx]

		// Batched ALU runs: Run consecutive simple-ALU slots starting here.
		// The guard bounds shrink the batch so no boundary event can fire
		// inside it; both differences are positive (the guard check above
		// just passed), so k >= 1 and the batch always makes progress.
		if r := op.Run; r != 0 {
			k := uint64(r)
			if d := cycleGuard - cyc; d < k {
				k = d
			}
			if d := instrGuard - ins; d < k {
				k = d
			}
			for end := idx + uint32(k); idx < end; idx++ {
				op := &code[idx]
				rs1, rs2, imm := regs[op.Rs1], regs[op.Rs2], op.Imm
				var v uint32
				switch op.Op {
				case compile.Addi:
					v = rs1 + imm
				case compile.Add:
					v = rs1 + rs2
				case compile.Lui:
					v = imm
				case compile.Auipc:
					v = pc + imm
				case compile.Slti:
					v = boolToU32(int32(rs1) < int32(imm))
				case compile.Sltiu:
					v = boolToU32(rs1 < imm)
				case compile.Xori:
					v = rs1 ^ imm
				case compile.Ori:
					v = rs1 | imm
				case compile.Andi:
					v = rs1 & imm
				case compile.Slli:
					v = rs1 << (imm & 31)
				case compile.Srli:
					v = rs1 >> (imm & 31)
				case compile.Srai:
					v = uint32(int32(rs1) >> (imm & 31))
				case compile.Sub:
					v = rs1 - rs2
				case compile.Sll:
					v = rs1 << (rs2 & 31)
				case compile.Slt:
					v = boolToU32(int32(rs1) < int32(rs2))
				case compile.Sltu:
					v = boolToU32(rs1 < rs2)
				case compile.Xor:
					v = rs1 ^ rs2
				case compile.Srl:
					v = rs1 >> (rs2 & 31)
				case compile.Sra:
					v = uint32(int32(rs1) >> (rs2 & 31))
				case compile.Or:
					v = rs1 | rs2
				case compile.And:
					v = rs1 & rs2
				case compile.Mul:
					v = rs1 * rs2
				case compile.Mulh:
					v = uint32(uint64(int64(int32(rs1))*int64(int32(rs2))) >> 32)
				case compile.Mulhsu:
					v = uint32(uint64(int64(int32(rs1))*int64(rs2)) >> 32)
				case compile.Mulhu:
					v = uint32(uint64(rs1) * uint64(rs2) >> 32)
				case compile.Div:
					v = divSigned(rs1, rs2)
				case compile.Divu:
					if rs2 == 0 {
						v = ^uint32(0)
					} else {
						v = rs1 / rs2
					}
				case compile.Rem:
					v = remSigned(rs1, rs2)
				case compile.Remu:
					if rs2 == 0 {
						v = rs1
					} else {
						v = rs1 % rs2
					}
				}
				regs[op.Rd] = v
				pc += 4
			}
			cyc += k
			ins += k
			continue
		}

		switch op.Op {
		case compile.TimedNop:
			cyc++
			ins++
			idx++
			pc += 4

		case compile.AddiSP:
			cyc++
			ins++
			v := regs[op.Rs1] + op.Imm
			// NotifySP may observe the machine (and, on tracking systems,
			// advance the clock): flush the mirrors around the call.
			m.cycle, m.c.Instructions, m.pc = cyc, ins, pc
			regs[op.Rd] = v
			if v < m.initialSP-stackGuard || v > m.initialSP {
				m.stackFault = true
			}
			m.sys.NotifySP(v)
			cyc, ins = m.cycle, m.c.Instructions
			idx++
			pc += 4
			if m.stackFault {
				m.cycle, m.c.Instructions, m.pc = cyc, ins, pc
				return fmt.Errorf("emu: stack pointer 0x%08x left the stack region at pc=0x%08x", v, pc)
			}

		case compile.Halt:
			cyc++
			ins++
			m.halted = true
			m.cycle, m.c.Instructions, m.pc = cyc, ins, pc+4
			return nil

		case compile.Jmp:
			cyc++
			ins++
			if op.Target == compile.InvalidTarget {
				m.cycle, m.c.Instructions, m.pc = cyc, ins, pc+op.Imm
				return nil
			}
			idx = op.Target
			pc = textBase + op.Target*4

		case compile.Jal:
			cyc++
			ins++
			regs[op.Rd] = pc + 4
			if op.Target == compile.InvalidTarget {
				m.cycle, m.c.Instructions, m.pc = cyc, ins, pc+op.Imm
				return nil
			}
			idx = op.Target
			pc = textBase + op.Target*4

		case compile.JmpReg:
			cyc++
			ins++
			np := (regs[op.Rs1] + op.Imm) &^ 1
			pc = np
			if o := np - textBase; np%4 == 0 && o>>2 < nCode {
				idx = o >> 2
			} else {
				m.cycle, m.c.Instructions, m.pc = cyc, ins, np
				return nil
			}

		case compile.Jalr:
			cyc++
			ins++
			np := (regs[op.Rs1] + op.Imm) &^ 1
			regs[op.Rd] = pc + 4
			pc = np
			if o := np - textBase; np%4 == 0 && o>>2 < nCode {
				idx = o >> 2
			} else {
				m.cycle, m.c.Instructions, m.pc = cyc, ins, np
				return nil
			}

		case compile.Beq:
			cyc++
			ins++
			if regs[op.Rs1] == regs[op.Rs2] {
				if op.Target == compile.InvalidTarget {
					m.cycle, m.c.Instructions, m.pc = cyc, ins, pc+op.Imm
					return nil
				}
				idx = op.Target
				pc = textBase + op.Target*4
			} else {
				idx++
				pc += 4
			}

		case compile.Bne:
			cyc++
			ins++
			if regs[op.Rs1] != regs[op.Rs2] {
				if op.Target == compile.InvalidTarget {
					m.cycle, m.c.Instructions, m.pc = cyc, ins, pc+op.Imm
					return nil
				}
				idx = op.Target
				pc = textBase + op.Target*4
			} else {
				idx++
				pc += 4
			}

		case compile.Blt:
			cyc++
			ins++
			if int32(regs[op.Rs1]) < int32(regs[op.Rs2]) {
				if op.Target == compile.InvalidTarget {
					m.cycle, m.c.Instructions, m.pc = cyc, ins, pc+op.Imm
					return nil
				}
				idx = op.Target
				pc = textBase + op.Target*4
			} else {
				idx++
				pc += 4
			}

		case compile.Bge:
			cyc++
			ins++
			if int32(regs[op.Rs1]) >= int32(regs[op.Rs2]) {
				if op.Target == compile.InvalidTarget {
					m.cycle, m.c.Instructions, m.pc = cyc, ins, pc+op.Imm
					return nil
				}
				idx = op.Target
				pc = textBase + op.Target*4
			} else {
				idx++
				pc += 4
			}

		case compile.Bltu:
			cyc++
			ins++
			if regs[op.Rs1] < regs[op.Rs2] {
				if op.Target == compile.InvalidTarget {
					m.cycle, m.c.Instructions, m.pc = cyc, ins, pc+op.Imm
					return nil
				}
				idx = op.Target
				pc = textBase + op.Target*4
			} else {
				idx++
				pc += 4
			}

		case compile.Bgeu:
			cyc++
			ins++
			if regs[op.Rs1] >= regs[op.Rs2] {
				if op.Target == compile.InvalidTarget {
					m.cycle, m.c.Instructions, m.pc = cyc, ins, pc+op.Imm
					return nil
				}
				idx = op.Target
				pc = textBase + op.Target*4
			} else {
				idx++
				pc += 4
			}

		case compile.Lb, compile.Lh, compile.Lw, compile.Lbu, compile.Lhu:
			cyc++
			ins++
			m.c.Loads++
			m.cycle, m.c.Instructions, m.pc = cyc, ins, pc
			v, err := m.load(regs[op.Rs1]+op.Imm, int(compile.AccessSize[op.Op]))
			if err != nil {
				return err
			}
			cyc, ins = m.cycle, m.c.Instructions
			s := compile.SignShift[op.Op]
			regs[op.Rd] = uint32(int32(v<<s) >> s)
			idx++
			pc += 4

		case compile.Sb, compile.Sh, compile.Sw:
			cyc++
			ins++
			m.c.Stores++
			m.cycle, m.c.Instructions, m.pc = cyc, ins, pc
			if err := m.store(regs[op.Rs1]+op.Imm, int(compile.AccessSize[op.Op]), regs[op.Rs2]); err != nil {
				return err
			}
			cyc, ins = m.cycle, m.c.Instructions
			if m.halted {
				m.pc = pc + 4
				return nil
			}
			idx++
			pc += 4

		default: // compile.RefStep
			m.cycle, m.c.Instructions, m.pc = cyc, ins, pc
			if err := m.stepChecked(); err != nil {
				return err
			}
			cyc, ins = m.cycle, m.c.Instructions
			if m.halted {
				return nil
			}
			pc = m.pc
			if o := pc - textBase; pc%4 == 0 && o>>2 < nCode {
				idx = o >> 2
			} else {
				return nil // outer loop reports the fetch error
			}
		}
	}
}
