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
// The guard is pulled back by aotMaxWidth-1 from the first instant at which a
// boundary event could fire; a cycle guard at or below the current cycle
// means an empty window (the reference step runs next).
func TestBatchHorizonTable(t *testing.T) {
	const inf = power.NoFailure
	base := guardInputs{
		failEnabled: true,
		nextFailure: inf,
		maxInstr:    1 << 40,
	}
	const b = 1<<40 - 1 // the base instruction guard
	cases := []struct {
		name  string
		mod   func(*guardInputs)
		cycle uint64 // want cycleGuard
		instr uint64 // want instrGuard
	}{
		{"unbounded", func(in *guardInputs) {}, inf - 2, b},
		{"failure-bound", func(in *guardInputs) { in.cycle = 10; in.nextFailure = 50 }, 48, b},
		{"failure-now", func(in *guardInputs) { in.cycle = 50; in.nextFailure = 50 }, 0, b},
		// Guard 48 is below the cycle: an instruction issued at 49 reaches
		// the failure instant at 50, so the window is empty.
		{"failure-next-cycle", func(in *guardInputs) { in.cycle = 49; in.nextFailure = 50 }, 48, b},
		{"failure-deferred", func(in *guardInputs) { in.failEnabled = false; in.cycle = 60; in.nextFailure = 50 }, inf - 1, b},
		{"cycle-budget-bound", func(in *guardInputs) { in.cycle = 90; in.maxCycles = 120 }, 119, b},
		{"instruction-bound", func(in *guardInputs) { in.maxInstr = 7 }, inf - 2, 6},
		{"forced-bound", func(in *guardInputs) {
			in.period = 1000
			in.margin = 100
			in.nextForced = 1000
			in.cycle = 500
		}, 899, b},
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
		}, inf - 4102, b},
		// A saturated nextForced disables the forced bound entirely (the
		// trigger in both run loops skips it the same way).
		{"forced-saturated", func(in *guardInputs) {
			in.cycle = inf - 200
			in.period = 100
			in.margin = 10
			in.nextForced = inf
			in.nextFailure = inf
			in.failEnabled = false
		}, inf - 1, b},
		{"stopAt-bound", func(in *guardInputs) { in.cycle = 10; in.stopAt = 25 }, 24, b},
		{"stopAt-loose", func(in *guardInputs) { in.stopAt = 1 << 30 }, 1<<30 - 1, b},
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

// horizonTestMachine builds a machine over the given kind running count ADDI
// instructions followed by EBREAK.
func horizonTestMachine(t *testing.T, kind systems.Kind, count int, cfg Config) *Machine {
	t.Helper()
	const (
		textBase = 0x0001_0000
		stackTop = 0x000A_0000
		ckptBase = 0x000E_0000
	)
	instrs := make([]isa.Instr, 0, count+1)
	for i := 0; i < count; i++ {
		instrs = append(instrs, isa.Instr{Op: isa.ADDI, Rd: isa.Reg(5), Rs1: isa.Reg(5), Imm: 1})
	}
	instrs = append(instrs, isa.Instr{Op: isa.EBREAK})
	sys, err := systems.Build(kind, mem.NewSpace(), systems.Config{
		CacheSize: 64, Ways: 2, StackTop: stackTop, CheckpointBase: ckptBase,
		Cost: mem.DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(sys, NewText(instrs), textBase, textBase, stackTop, cfg)
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
		m := horizonTestMachine(t, systems.KindClank, 64, cfg)
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

// TestRunUntilEngineBoundaryEquivalence checks that RunUntil stops both
// engines at the identical instruction boundary with identical state for a
// sweep of targets — the property the snapshot-fork prefix machine relies on.
func TestRunUntilEngineBoundaryEquivalence(t *testing.T) {
	for target := uint64(0); target <= 70; target += 7 {
		ref := horizonTestMachine(t, systems.KindVolatile, 64, Config{Engine: EngineRef})
		aot := horizonTestMachine(t, systems.KindVolatile, 64, Config{Engine: EngineAOT})
		rh, rerr := ref.RunUntil(target)
		ah, aerr := aot.RunUntil(target)
		if rerr != nil || aerr != nil {
			t.Fatalf("target %d: errors ref=%v aot=%v", target, rerr, aerr)
		}
		if rh != ah || ref.cycle != aot.cycle || ref.pc != aot.pc || ref.regs != aot.regs {
			t.Fatalf("target %d: boundary diverged: ref(halted=%v cycle=%d pc=%#x) aot(halted=%v cycle=%d pc=%#x)",
				target, rh, ref.cycle, ref.pc, ah, aot.cycle, aot.pc)
		}
		if !rh && ref.cycle < target {
			t.Fatalf("target %d: stopped early at %d without halting", target, ref.cycle)
		}
		// Resuming after a bounded run must finish exactly like an unbounded one.
		if _, err := ref.Run(); err != nil {
			t.Fatalf("resume ref: %v", err)
		}
		if _, err := aot.Run(); err != nil {
			t.Fatalf("resume aot: %v", err)
		}
		if ref.cycle != aot.cycle || ref.regs != aot.regs {
			t.Fatalf("target %d: post-resume state diverged", target)
		}
	}
}
