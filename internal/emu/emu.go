// Package emu implements the RV32IM processor emulator: the role ICEmu plays
// in the paper (Section 5.1). It executes programs instruction by
// instruction against a pluggable memory system (sim.System), owns the
// simulation clock and the power-failure schedule, hands every CPU data
// access to the verifier, reports power failures and restores to the
// attached sim.Probe, feeds the per-instruction trace recorder, and runs the
// reboot/restore path after each power failure.
//
// Cost model (Section 5.2): every instruction retires in one base cycle —
// the in-order single-issue E21-style pipeline — and data accesses add the
// cache/NVM latency charged inside the memory system. Instruction fetch is
// charged identically (zero extra) for every system, so normalized
// comparisons between systems are unaffected.
package emu

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"nacho/internal/compile"
	"nacho/internal/isa"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/power"
	"nacho/internal/sim"
	"nacho/internal/trace"
	"nacho/internal/verify"
)

// Memory-mapped I/O registers. Stores to these bypass the memory system.
const (
	MMIOBase    = 0x000F_0000
	ExitAddr    = MMIOBase + 0x0 // store: halt; value is the exit status
	ResultAddr  = MMIOBase + 0x4 // store: report a result word (golden check)
	PutcharAddr = MMIOBase + 0x8 // store: append low byte to the output
)

// Config tunes one emulation run.
type Config struct {
	// Schedule injects power failures; power.None{} runs failure-free.
	Schedule power.Schedule
	// ForcedCheckpointPeriod, when non-zero, creates a checkpoint every this
	// many cycles after each boot (the paper's n/2 forward-progress rule).
	// Each starts early by a margin New derives from the period.
	ForcedCheckpointPeriod uint64
	// MaxInstructions aborts runaway programs; 0 means a generous default.
	MaxInstructions uint64
	// MaxCycles is a hard cycle budget for the whole run, restores included;
	// 0 means no budget. Exceeding it aborts with an error wrapping
	// ErrCycleBudget — the crash-consistency fuzzer's non-termination oracle:
	// a run that cannot finish within its budget under a finite failure
	// schedule has lost forward progress.
	MaxCycles uint64
	// FinalFlush, when set, issues one ForceCheckpoint after a clean halt
	// with power failures disabled. It models the final commit a deployment
	// performs when its job completes, and guarantees that every surviving
	// store is visible in NVM — the state the differential oracle compares.
	FinalFlush bool
	// Probe, when non-nil, observes the run's full event stream: New
	// attaches it to the memory system (sim.System.Attach) beside the
	// emulator's own power-failure and restore events. A probe does not
	// choose the engine: both engines emit the same event stream, event for
	// event.
	Probe sim.Probe
	// Verifier, when non-nil, receives every CPU data access outside the
	// MMIO window, as the CPU sees it, once the memory system has served it
	// (see Machine.load). The caller also attaches it as a Probe, or in a
	// sim.Combine, for the write-backs, commits and power failures it
	// checks. Like Trace, it does not choose the engine.
	Verifier *verify.Verifier
	// Trace, when non-nil, receives one line per retired instruction and a
	// marker per power failure. Only the reference interpreter retires
	// instructions one at a time, so a trace selects it (see Executed).
	Trace *trace.Recorder
	// Reference runs the machine on the reference interpreter (see
	// Executed). It is the referee switch: the engine-equivalence suite and
	// this package's tests set it to compare the engines. No command, public
	// field or fuzz setting reaches it.
	Reference bool
}

const defaultMaxInstructions = 2_000_000_000

// Result summarizes a completed run.
type Result struct {
	ExitCode uint32
	Result   uint32 // last value stored to ResultAddr
	Results  []uint32
	Output   []byte // bytes stored to PutcharAddr
	Counters metrics.Counters
	// FinalRegs is the architectural register state at the end of the run.
	// Under a correct memory system it is invariant across failure schedules,
	// which makes it one of the differential oracle's comparison axes.
	FinalRegs sim.Snapshot
}

// Machine is one emulated processor wired to a memory system. It implements
// sim.Clock and sim.RegSource for that system.
type Machine struct {
	regs [32]uint32
	pc   uint32

	text   []isa.Instr
	prog   *compile.Program // AOT threaded-code IR (see Text)
	engine Engine           // the engine that runs (see Executed)
	entry  uint32

	sys   sim.System
	sched power.Schedule
	probe sim.Probe
	trace *trace.Recorder
	ver   *verify.Verifier
	cfg   Config

	cycle        uint64
	nextFailure  uint64
	failEnabled  bool
	nextForced   uint64
	forcedMargin uint64 // cycles each forced checkpoint starts early
	stopAt       uint64 // RunUntil bound; 0 = run to completion

	c metrics.Counters

	halted     bool
	stackFault bool
	exitCode   uint32
	results    []uint32
	output     []byte
}

// satAdd is a+b saturating at power.NoFailure, the cycle domain's infinity.
// Forced-checkpoint and horizon arithmetic near 2^64 must clamp rather than
// wrap: a wrapped small value would schedule bogus early events (or spin the
// trigger-advance loops forever).
func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return power.NoFailure
}

// errPowerFail converts the PowerFail panic into control flow inside Run.
var errPowerFail = errors.New("power failure")

// ErrCycleBudget reports that a run exceeded Config.MaxCycles. Callers that
// inject failure schedules match it with errors.Is to distinguish a
// forward-progress loss from ordinary program errors.
var ErrCycleBudget = errors.New("cycle budget exceeded")

// New creates a machine executing the pre-analyzed text segment at
// mem.TextBase, starting at entry with the stack pointer at mem.StackTop.
// The system is attached (clock, registers, counters, cfg.Probe) and its
// boot checkpoint initialized.
func New(sys sim.System, text *Text, entry uint32, cfg Config) *Machine {
	if text == nil {
		text = &Text{}
	}
	if cfg.Schedule == nil {
		cfg.Schedule = power.None{}
	}
	// Confine schedule state to this machine: stateful schedules (Uniform)
	// advance an RNG as they are queried, so sharing one value across
	// machines would make failure instants depend on run order.
	cfg.Schedule = cfg.Schedule.Clone()
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = defaultMaxInstructions
	}
	m := &Machine{
		text:   text.Instrs,
		prog:   text.prog,
		engine: Executed(cfg.Reference, cfg.Trace != nil),
		entry:  entry,
		sys:    sys,
		sched:  cfg.Schedule,
		probe:  cfg.Probe,
		trace:  cfg.Trace,
		ver:    cfg.Verifier,
		cfg:    cfg,
	}
	m.resetToEntry()
	m.failEnabled = true
	m.nextFailure = m.sched.NextFailureAfter(0)
	m.nextForced = cfg.ForcedCheckpointPeriod
	// Each forced checkpoint starts early so it *completes* inside the
	// on-window when the failure schedule is periodic and known (the Table 2
	// setup): a checkpoint that collides with the failure instant would
	// otherwise never commit, and a checkpoint-free workload would lose half
	// of every window. 4096 cycles is a generous bound on one checkpoint; a
	// quarter of the period caps it for short periods.
	m.forcedMargin = min(4096, cfg.ForcedCheckpointPeriod/4)
	sys.Attach(m, m, &m.c, cfg.Probe)
	return m
}

// DecodeText decodes an assembled text segment into instructions and
// compiles them to the AOT IR, so the cost is paid once per image rather
// than once per run.
func DecodeText(data []byte) (*Text, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("emu: text size %d is not word-aligned", len(data))
	}
	out := make([]isa.Instr, len(data)/4)
	for i := range out {
		w := uint32(data[4*i]) | uint32(data[4*i+1])<<8 | uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24
		in, err := isa.Decode(w)
		if err != nil {
			return nil, fmt.Errorf("emu: text word %d: %w", i, err)
		}
		out[i] = in
	}
	return NewText(out), nil
}

// Now implements sim.Clock.
func (m *Machine) Now() uint64 { return m.cycle }

// Advance implements sim.Clock: it charges cycles and raises PowerFail at
// the scheduled failure instant.
func (m *Machine) Advance(n uint64) {
	target := m.cycle + n
	if m.failEnabled && m.nextFailure <= target {
		m.cycle = m.nextFailure
		panic(sim.PowerFail{})
	}
	m.cycle = target
}

// DeferFailures implements sim.EnergyReserve: power failures are held back
// until the returned release runs; a failure whose instant passes inside the
// window fires at release (the reserve is exhausted).
func (m *Machine) DeferFailures() func() {
	if !m.failEnabled {
		return func() {}
	}
	m.failEnabled = false
	return func() {
		m.failEnabled = true
		if m.nextFailure <= m.cycle {
			panic(sim.PowerFail{})
		}
	}
}

// RegSnapshot implements sim.RegSource: the live registers plus the PC of
// the in-flight instruction — exactly the state to resume from, since
// register write-back happens after all memory effects.
func (m *Machine) RegSnapshot() sim.Snapshot {
	var s sim.Snapshot
	copy(s.Regs[:], m.regs[1:])
	s.PC = m.pc
	return s
}

func (m *Machine) resetToEntry() {
	m.regs = [32]uint32{}
	m.regs[isa.SP] = mem.StackTop
	m.pc = m.entry
	m.sys.NotifySP(mem.StackTop)
}

func (m *Machine) applySnapshot(s sim.Snapshot) {
	m.regs[0] = 0
	copy(m.regs[1:], s.Regs[:])
	m.pc = s.PC
	m.sys.NotifySP(m.regs[isa.SP])
}

// Run executes until the program halts (a store to ExitAddr or an EBREAK),
// handling power failures along the way.
func (m *Machine) Run() (Result, error) {
	runErr := m.run()
	if m.halted && runErr == nil && m.cfg.FinalFlush {
		// The job is done: persist whatever is still dirty. The device only
		// runs this final commit when it has the energy for it, so failures
		// are held back (the same assumption the restore path makes).
		m.failEnabled = false
		m.sys.ForceCheckpoint()
	}
	res := Result{
		ExitCode:  m.exitCode,
		Results:   m.results,
		Output:    m.output,
		Counters:  m.c,
		FinalRegs: m.RegSnapshot(),
	}
	if len(m.results) > 0 {
		res.Result = m.results[len(m.results)-1]
	}
	res.Counters.Cycles = m.cycle
	return res, runErr
}

// RunUntil executes until the program halts or the simulation clock reaches
// target, whichever comes first, handling power failures along the way. It
// stops at the first instruction boundary at or past target, leaving the
// machine mid-run and resumable (by RunUntil, Run, or Fork); no final flush
// is performed. The snapshot-fork explorer uses it to advance a shared
// prefix machine from one checkpoint boundary to the next.
func (m *Machine) RunUntil(target uint64) (halted bool, err error) {
	if m.cycle < target {
		m.stopAt = target
		defer func() { m.stopAt = 0 }()
		err = m.run()
	}
	return m.halted, err
}

// run is the reboot loop Run and RunUntil share: it executes slices until
// the program halts, a slice fails, or the clock reaches the RunUntil stop
// (stopAt, 0 for none), running the reboot path after each power failure.
func (m *Machine) run() error {
	for !m.halted && (m.stopAt == 0 || m.cycle < m.stopAt) {
		err := m.runSlice()
		if errors.Is(err, errPowerFail) {
			m.reboot()
		} else if err != nil {
			return err
		}
	}
	return nil
}

// Fork returns an independent copy of the machine mid-run, executing under
// the given failure schedule from the current instruction boundary onward:
// registers, counters, and run outputs are copied, the memory system is
// replicated (sim.System.Fork: copy-on-write NVM, deep-copied volatile
// state), and the fork's next failure instant is sched.NextFailureAfter(now)
// — so a fork of a failure-free prefix at cycle c under power.At(t), t > c,
// is state-identical to a from-boot run under the same schedule at cycle c.
// Forks are probe-free, verifier-free and trace-free (so they run on the AOT
// engine unless Config.Reference is set, never forced onto the reference
// interpreter by the parent's trace) and safe to run on another goroutine.
// The parent must be paused (between RunUntil calls).
func (m *Machine) Fork(sched power.Schedule) *Machine {
	if sched == nil {
		sched = power.None{}
	}
	f := new(Machine)
	*f = *m
	f.sched = sched.Clone()
	f.cfg.Schedule = f.sched
	f.probe, f.cfg.Probe = nil, nil
	f.ver, f.cfg.Verifier = nil, nil
	f.trace, f.cfg.Trace = nil, nil
	f.engine = Executed(f.cfg.Reference, false)
	f.stopAt = 0
	f.results = append([]uint32(nil), m.results...)
	f.output = append([]byte(nil), m.output...)
	f.sys = m.sys.Fork(f, f, &f.c)
	f.nextFailure = f.sched.NextFailureAfter(f.cycle)
	return f
}

// EqualState reports whether o, a replica of m (both forks of a common
// ancestor, so one image and one configuration), holds the same state: run
// to completion from here under schedules that fail at the same distances
// from their clocks, the two would produce the same outputs, registers and
// NVM, with every cycle count differing by the difference of their clocks.
// It compares the pc and registers, the outputs so far, the halt, exit-code
// and stack-fault state, the next failure and forced checkpoint relative to
// each clock, and then the memory system (sim.System.EqualState). The
// clock and the counters are not state. The cheap fields, which differ
// most often, go first and NVM goes last.
func (m *Machine) EqualState(o *Machine) bool {
	if m.pc != o.pc || m.regs != o.regs || m.halted != o.halted || m.exitCode != o.exitCode ||
		m.stackFault != o.stackFault || m.failEnabled != o.failEnabled ||
		!sameOffset(m.nextFailure, m.cycle, o.nextFailure, o.cycle) ||
		m.cfg.ForcedCheckpointPeriod > 0 && !sameOffset(m.nextForced, m.cycle, o.nextForced, o.cycle) ||
		!slices.Equal(m.results, o.results) || !bytes.Equal(m.output, o.output) {
		return false
	}
	return m.sys.EqualState(o.sys)
}

// sameOffset reports whether instants a and b lie at the same distance from
// clocks na and nb, or are both power.NoFailure.
func sameOffset(a, na, b, nb uint64) bool {
	if a == power.NoFailure || b == power.NoFailure {
		return a == b
	}
	return a-na == b-nb
}

// Retired returns the number of instructions retired so far.
func (m *Machine) Retired() uint64 { return m.c.Instructions }

// Limits returns the run's cycle budget (0 for none) and instruction limit.
func (m *Machine) Limits() (maxCycles, maxInstructions uint64) {
	return m.cfg.MaxCycles, m.cfg.MaxInstructions
}

// System returns the attached memory system (final-NVM inspection of forks).
func (m *Machine) System() sim.System { return m.sys }

// Engine returns the engine the machine runs on (see Executed).
func (m *Machine) Engine() Engine { return m.engine }

// Halted reports whether the program has halted.
func (m *Machine) Halted() bool { return m.halted }

// runSlice is the run loop of both engines. It executes instructions until
// halt, the RunUntil stop, or the next power failure, making every
// per-boundary check (stop, instruction limit, cycle budget, forced
// checkpoint) once per iteration. On the AOT engine an iteration then runs
// execAOT up to aotGuard's safe horizon when that window is non-empty; every
// other iteration — the reference engine, a forced checkpoint, an unsafe
// horizon, an image with no IR — takes one reference step. The event the
// checks fire therefore lands at the same instant with the same state on
// either engine.
func (m *Machine) runSlice() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(sim.PowerFail); ok {
				err = errPowerFail
				return
			}
			panic(r)
		}
	}()
	var code []compile.Inst
	if m.engine == EngineAOT && m.prog != nil {
		code = m.prog.Code
	}
	for !m.halted {
		if m.stopAt != 0 && m.cycle >= m.stopAt {
			return nil
		}
		if m.c.Instructions >= m.cfg.MaxInstructions {
			return fmt.Errorf("emu: instruction limit %d exceeded at pc=0x%08x", m.cfg.MaxInstructions, m.pc)
		}
		if m.cfg.MaxCycles > 0 && m.cycle >= m.cfg.MaxCycles {
			return fmt.Errorf("emu: %w (%d cycles) at pc=0x%08x", ErrCycleBudget, m.cfg.MaxCycles, m.pc)
		}
		if m.cfg.ForcedCheckpointPeriod > 0 && m.nextForced != power.NoFailure &&
			satAdd(m.cycle, m.forcedMargin) >= m.nextForced {
			m.sys.ForceCheckpoint()
			for m.nextForced != power.NoFailure && m.nextForced <= satAdd(m.cycle, m.forcedMargin) {
				m.nextForced = satAdd(m.nextForced, m.cfg.ForcedCheckpointPeriod)
			}
		} else if len(code) > 0 {
			cycleGuard, instrGuard := aotGuard(guardInputs{
				cycle:       m.cycle,
				failEnabled: m.failEnabled,
				nextFailure: m.nextFailure,
				maxCycles:   m.cfg.MaxCycles,
				maxInstr:    m.cfg.MaxInstructions,
				period:      m.cfg.ForcedCheckpointPeriod,
				margin:      m.forcedMargin,
				nextForced:  m.nextForced,
				stopAt:      m.stopAt,
			})
			if m.cycle < cycleGuard && m.c.Instructions < instrGuard {
				if err := m.execAOT(code, cycleGuard, instrGuard); err != nil {
					return err
				}
				continue
			}
		}
		if err := m.stepChecked(); err != nil {
			return err
		}
	}
	return nil
}

// stepChecked is one reference-path instruction plus the stack-fault check
// that follows every step: the reference engine's whole step, and the AOT
// engine's fallback for anything it does not run natively.
func (m *Machine) stepChecked() error {
	if err := m.step(); err != nil {
		return err
	}
	if m.stackFault {
		return fmt.Errorf("emu: stack pointer 0x%08x left the stack region at pc=0x%08x", m.regs[isa.SP], m.pc)
	}
	return nil
}

// reboot runs the power-failure and restore path. Failures are disabled
// while restoring: the device reboots only once its storage capacitor holds
// enough energy for the restore sequence (the paper's forward-progress
// assumption).
func (m *Machine) reboot() {
	if m.trace != nil {
		m.trace.PowerFailure(m.cycle)
	}
	if m.probe != nil {
		m.probe.OnPowerFailure(sim.PowerEvent{Cycle: m.cycle})
	}
	m.c.PowerFailures++
	m.failEnabled = false
	m.sys.PowerFailure()
	start := m.cycle
	snap, ok := m.sys.Restore()
	if ok {
		m.applySnapshot(snap)
	} else {
		m.resetToEntry()
	}
	m.c.RestoreCycles += m.cycle - start
	if m.probe != nil {
		m.probe.OnRestore(sim.RestoreEvent{Cycle: m.cycle, Cycles: m.cycle - start, OK: ok})
	}
	m.failEnabled = true
	m.nextFailure = m.sched.NextFailureAfter(m.cycle)
	if m.cfg.ForcedCheckpointPeriod > 0 {
		m.nextForced = satAdd(m.cycle, m.cfg.ForcedCheckpointPeriod)
	}
}

func (m *Machine) fetch() (isa.Instr, error) {
	off := m.pc - mem.TextBase
	if m.pc%4 != 0 || off/4 >= uint32(len(m.text)) {
		return isa.Instr{}, fmt.Errorf("emu: pc 0x%08x outside text segment", m.pc)
	}
	return m.text[off/4], nil
}

// stackBottom is how far the stack may grow before the emulator reports an
// overflow (a program bug: the memory map reserves mem.StackSize bytes
// below mem.StackTop for the stack).
const stackBottom = mem.StackTop - mem.StackSize

func (m *Machine) setReg(r isa.Reg, v uint32) {
	if r == isa.Zero {
		return
	}
	m.regs[r] = v
	if r == isa.SP {
		if v < stackBottom || v > mem.StackTop {
			m.stackFault = true
		}
		m.sys.NotifySP(v)
	}
}

// load issues a data read through the memory system (or MMIO) for both
// engines; the caller has charged the instruction's base cycle and
// committed m.pc. The verifier gets the value once the system's Load has
// returned, so a checkpoint the access triggered commits first (the access
// re-executes after a rollback to it). MMIO is not part of the data image
// and is not reported. The MMIO Advance and the system's own clock charges
// may raise the scheduled power failure, which leaves the access unreported.
func (m *Machine) load(addr uint32, size int) (uint32, error) {
	if err := mem.CheckAligned(addr, size); err != nil {
		return 0, fmt.Errorf("emu: pc 0x%08x: %w", m.pc, err)
	}
	if addr >= MMIOBase && addr < MMIOBase+0x1000 {
		m.Advance(1)
		return 0, nil
	}
	v := m.sys.Load(addr, size)
	if m.ver != nil {
		m.ver.CPURead(addr, size, v)
	}
	return v, nil
}

// store is load's store counterpart, including the MMIO side effects (halt,
// result, output) and the sub-word masking of the value handed to the
// system and the verifier.
func (m *Machine) store(addr uint32, size int, val uint32) error {
	if err := mem.CheckAligned(addr, size); err != nil {
		return fmt.Errorf("emu: pc 0x%08x: %w", m.pc, err)
	}
	if addr >= MMIOBase && addr < MMIOBase+0x1000 {
		m.Advance(1)
		switch addr {
		case ExitAddr:
			m.halted = true
			m.exitCode = val
		case ResultAddr:
			m.results = append(m.results, val)
		case PutcharAddr:
			m.output = append(m.output, byte(val))
		}
		return nil
	}
	switch size {
	case 1:
		val &= 0xFF
	case 2:
		val &= 0xFFFF
	}
	m.sys.Store(addr, size, val)
	if m.ver != nil {
		m.ver.CPUWrite(addr, size, val)
	}
	return nil
}
