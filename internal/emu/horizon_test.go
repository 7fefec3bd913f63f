package emu

// White-box tests for the AOT engine's safe-horizon arithmetic and the saturating
// forced-checkpoint bookkeeping: the regression suite for the unsigned
// underflow/overflow family (NoFailure-adjacent cycles, margin exceeding
// nextForced) that the pre-fix expressions `nextForced - margin - cycle` and
// `cycle + margin` wrapped on.

import (
	"testing"

	"nacho/internal/isa"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/power"
	"nacho/internal/systems"
)

func TestSatAdd(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 2, 3},
		{power.NoFailure - 1, 1, power.NoFailure},
		{power.NoFailure - 1, 2, power.NoFailure},
		{power.NoFailure, 1, power.NoFailure},
		{power.NoFailure, power.NoFailure, power.NoFailure},
		{1 << 63, 1 << 63, power.NoFailure},
	}
	for _, c := range cases {
		if got := satAdd(c.a, c.b); got != c.want {
			t.Errorf("satAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestBatchHorizonTable pins the safe-horizon computation that bounds the
// AOT engine's inline batches, most importantly the overflow family: each
// "pre-fix" comment states what the unguarded arithmetic used to produce.
// The cycle guard is the first instant at which a boundary event could fire
// (for a power failure, the last cycle an instruction can issue without
// reaching it); a cycle guard at or below the current cycle means an empty
// window (the reference step runs next).
func TestBatchHorizonTable(t *testing.T) {
	const inf = power.NoFailure
	base := guardInputs{
		failEnabled: true,
		nextFailure: inf,
		maxInstr:    1 << 40,
	}
	const b = 1 << 40 // the base instruction guard
	cases := []struct {
		name  string
		mod   func(*guardInputs)
		cycle uint64 // want cycleGuard
		instr uint64 // want instrGuard
	}{
		{"unbounded", func(in *guardInputs) {}, inf - 1, b},
		{"failure-bound", func(in *guardInputs) { in.cycle = 10; in.nextFailure = 50 }, 49, b},
		{"failure-now", func(in *guardInputs) { in.cycle = 50; in.nextFailure = 50 }, 0, b},
		// Guard 49 is the cycle: an instruction issued at 49 reaches the
		// failure instant at 50, so the window is empty.
		{"failure-next-cycle", func(in *guardInputs) { in.cycle = 49; in.nextFailure = 50 }, 49, b},
		{"failure-deferred", func(in *guardInputs) { in.failEnabled = false; in.cycle = 60; in.nextFailure = 50 }, inf, b},
		{"cycle-budget-bound", func(in *guardInputs) { in.cycle = 90; in.maxCycles = 120 }, 120, b},
		{"instruction-bound", func(in *guardInputs) { in.maxInstr = 7 }, inf - 1, 7},
		{"forced-bound", func(in *guardInputs) {
			in.period = 1000
			in.margin = 100
			in.nextForced = 1000
			in.cycle = 500
		}, 900, b},
		// Pre-fix: nextForced-margin-cycle = 50-100-0 wrapped to ~2^64,
		// so the batch ran straight past the forced-checkpoint trigger.
		{"margin-exceeds-nextForced", func(in *guardInputs) {
			in.period = 10
			in.margin = 100
			in.nextForced = 50
		}, 0, b},
		// Pre-fix: (inf-5)-(4096)-(inf-10) underflowed to a huge horizon.
		// The guard lands below the cycle: an empty window.
		{"nofailure-adjacent-forced", func(in *guardInputs) {
			in.cycle = inf - 10
			in.period = 100
			in.margin = 4096
			in.nextForced = inf - 5
		}, inf - 4101, b},
		// A saturated nextForced disables the forced bound entirely (the
		// trigger in both run loops skips it the same way).
		{"forced-saturated", func(in *guardInputs) {
			in.cycle = inf - 200
			in.period = 100
			in.margin = 10
			in.nextForced = inf
			in.nextFailure = inf
			in.failEnabled = false
		}, inf, b},
		{"stopAt-bound", func(in *guardInputs) { in.cycle = 10; in.stopAt = 25 }, 25, b},
		{"stopAt-loose", func(in *guardInputs) { in.stopAt = 1 << 30 }, 1 << 30, b},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := base
			c.mod(&in)
			cycleGuard, instrGuard := aotGuard(in)
			if cycleGuard != c.cycle || instrGuard != c.instr {
				t.Errorf("aotGuard(%+v) = (%d, %d), want (%d, %d)", in, cycleGuard, instrGuard, c.cycle, c.instr)
			}
		})
	}
}

// mixedProgram exercises every kind of AOT slot: ALU runs, each load and
// store width (sign-extending loads included), a taken and a not-taken
// branch, a jal/jalr call, and an addi sp pair around a stack access. It
// halts with x5 = 64, and each load leaves its value in its own register.
func mixedProgram() []isa.Instr {
	x := func(n int) isa.Reg { return isa.Reg(n) }
	inc := isa.Instr{Op: isa.ADDI, Rd: x(5), Rs1: x(5), Imm: 1}
	incs := func(n int) []isa.Instr {
		out := make([]isa.Instr, n)
		for i := range out {
			out[i] = inc
		}
		return out
	}
	var p []isa.Instr
	p = append(p,
		isa.Instr{Op: isa.LUI, Rd: x(6), Imm: 0x0002_0000},        // data base
		isa.Instr{Op: isa.ADDI, Rd: x(7), Rs1: isa.Zero, Imm: -3}, // 0xFFFFFFFD
	)
	p = append(p, incs(8)...)
	p = append(p,
		isa.Instr{Op: isa.SW, Rs1: x(6), Rs2: x(7), Imm: 0},
		isa.Instr{Op: isa.SH, Rs1: x(6), Rs2: x(7), Imm: 4},
		isa.Instr{Op: isa.SB, Rs1: x(6), Rs2: x(7), Imm: 8},
		isa.Instr{Op: isa.LW, Rd: x(8), Rs1: x(6), Imm: 0},
		isa.Instr{Op: isa.LH, Rd: x(9), Rs1: x(6), Imm: 4},
		isa.Instr{Op: isa.LHU, Rd: x(10), Rs1: x(6), Imm: 4},
		isa.Instr{Op: isa.LB, Rd: x(11), Rs1: x(6), Imm: 8},
		isa.Instr{Op: isa.LBU, Rd: x(12), Rs1: x(6), Imm: 8},
	)
	p = append(p, incs(8)...)
	p = append(p,
		isa.Instr{Op: isa.BEQ, Rs1: x(5), Rs2: isa.Zero, Imm: 8}, // not taken
		isa.Instr{Op: isa.BNE, Rs1: x(5), Rs2: isa.Zero, Imm: 8}, // taken
		isa.Instr{Op: isa.ADDI, Rd: x(5), Rs1: x(5), Imm: 100},   // skipped
	)
	call := len(p)
	p = append(p,
		isa.Instr{}, // jal ra, fn: patched below
		isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP, Imm: -16},
		isa.Instr{Op: isa.SW, Rs1: isa.SP, Rs2: x(5), Imm: 0},
		isa.Instr{Op: isa.LW, Rd: x(13), Rs1: isa.SP, Imm: 0},
		isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP, Imm: 16},
	)
	p = append(p, incs(47)...)
	p = append(p, isa.Instr{Op: isa.EBREAK})
	p[call] = isa.Instr{Op: isa.JAL, Rd: isa.RA, Imm: int32(4 * (len(p) - call))}
	return append(p, inc, isa.Instr{Op: isa.JALR, Rd: isa.Zero, Rs1: isa.RA})
}

// horizonTestMachine builds a machine over the given kind running
// mixedProgram.
func horizonTestMachine(t *testing.T, kind systems.Kind, cfg Config) *Machine {
	t.Helper()
	const (
		textBase = 0x0001_0000
		stackTop = 0x000A_0000
		ckptBase = 0x000E_0000
	)
	sys, err := systems.Build(kind, mem.NewSpace(), systems.Config{
		CacheSize: 64, Ways: 2, StackTop: stackTop, CheckpointBase: ckptBase,
		Cost: mem.DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(sys, NewText(mixedProgram()), textBase, textBase, stackTop, cfg)
}

// TestForcedCheckpointArithmeticNearOverflow runs both engines with the
// simulation clock parked just below 2^64 and a forced-checkpoint trigger in
// the saturation zone. Pre-fix, the reference path's trigger-advance loop
// (`nextForced += period` until past `cycle+margin`) wrapped and spun
// effectively forever; post-fix both engines saturate nextForced, take the
// checkpoint once, and halt with identical state.
func TestForcedCheckpointArithmeticNearOverflow(t *testing.T) {
	type outcome struct {
		cycles      uint64
		checkpoints uint64
		forced      uint64
		x5          uint32
	}
	run := func(engine Engine) outcome {
		cfg := Config{ForcedCheckpointPeriod: 4000, Engine: engine}
		m := horizonTestMachine(t, systems.KindClank, cfg)
		// Park the clock near the top of the domain, mid-interval: the next
		// forced checkpoint saturates.
		m.cycle = power.NoFailure - 2000
		m.nextForced = power.NoFailure - 1000
		m.failEnabled = false // Advance's cycle+n must not be asked to wrap
		res, err := m.Run()
		if err != nil {
			t.Fatalf("run (%s): %v", engine, err)
		}
		return outcome{
			cycles:      res.Counters.Cycles,
			checkpoints: res.Counters.Checkpoints,
			forced:      res.Counters.ForcedCkpts,
			x5:          res.FinalRegs.Regs[4], // x5
		}
	}
	ref := run(EngineRef)
	aot := run(EngineAOT)
	if ref != aot {
		t.Fatalf("engines diverged near overflow: ref=%+v aot=%+v", ref, aot)
	}
	if ref.forced == 0 {
		t.Fatal("expected the in-zone forced checkpoint to fire")
	}
	if ref.x5 != 64 {
		t.Fatalf("program state corrupted: x5=%d, want 64", ref.x5)
	}
}

// TestRunUntilEngineBoundaryEquivalence puts each guard bound on every
// cycle of mixedProgram, so that a memory access, a branch, a call and an
// addi sp each meet every boundary. For each cycle t of the run on Volatile
// and on NACHO, the engines must agree on the state (cycle, pc, registers,
// counters and error) after RunUntil(t) and after resuming, and after runs
// from boot that fail at t, exceed a cycle budget of t, or exceed an
// instruction limit of t. With forced checkpoints the run is longer, and the
// failure instant sweeps all of it.
func TestRunUntilEngineBoundaryEquivalence(t *testing.T) {
	type state struct {
		halted bool
		cycle  uint64
		pc     uint32
		regs   [32]uint32
		c      metrics.Counters
		err    string
	}
	snap := func(m *Machine, err error) state {
		s := state{halted: m.halted, cycle: m.cycle, pc: m.pc, regs: m.regs, c: m.c}
		if err != nil {
			s.err = err.Error()
		}
		return s
	}
	for _, kind := range []systems.Kind{systems.KindVolatile, systems.KindNACHO} {
		// length is the failure-free run's cycle count under cfg.
		length := func(cfg Config) uint64 {
			res, err := horizonTestMachine(t, kind, cfg).Run()
			if err != nil || res.FinalRegs.Regs[4] != 64 {
				t.Fatalf("%s %+v: failure-free run: x5=%d err=%v", kind, cfg, res.FinalRegs.Regs[4], err)
			}
			return res.Counters.Cycles
		}
		// compare runs cfg from boot on both engines.
		compare := func(name string, target uint64, cfg Config) {
			run := func(engine Engine) state {
				cfg.Engine = engine
				m := horizonTestMachine(t, kind, cfg)
				_, err := m.Run()
				return snap(m, err)
			}
			if ref, aot := run(EngineRef), run(EngineAOT); ref != aot {
				t.Fatalf("%s %s at %d: engines diverged:\nref %+v\naot %+v", kind, name, target, ref, aot)
			}
		}
		for target, end := uint64(0), length(Config{}); target <= end+1; target++ {
			stopped := func(engine Engine) [2]state {
				m := horizonTestMachine(t, kind, Config{Engine: engine})
				_, err := m.RunUntil(target)
				at := snap(m, err)
				if !at.halted && at.cycle < target && err == nil {
					t.Fatalf("%s target %d: %s stopped early at %d without halting", kind, target, engine, at.cycle)
				}
				// Resuming after a bounded run must finish exactly like an
				// unbounded one.
				_, err = m.Run()
				return [2]state{at, snap(m, err)}
			}
			if ref, aot := stopped(EngineRef), stopped(EngineAOT); ref != aot {
				t.Fatalf("%s RunUntil(%d): engines diverged:\nref %+v\naot %+v", kind, target, ref, aot)
			}
			compare("failure", target, Config{Schedule: power.NewAt(target)})
			compare("cycle budget", target, Config{MaxCycles: target})
			compare("instruction limit", target, Config{MaxInstructions: target})
		}
		const period = 16
		for target, end := uint64(0), length(Config{ForcedCheckpointPeriod: period}); target <= end+1; target++ {
			compare("failure with forced checkpoints", target,
				Config{Schedule: power.NewAt(target), ForcedCheckpointPeriod: period})
		}
	}
}
