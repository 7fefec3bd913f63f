package emu

import (
	"io"
	"testing"

	"nacho/internal/mem"
	"nacho/internal/power"
	"nacho/internal/systems"
	"nacho/internal/trace"
)

// TestEqualState: two replicas of one paused machine compare equal, also at
// different clocks when their cycle-valued fields keep the same distance
// from them, and any single perturbed field makes them unequal.
func TestEqualState(t *testing.T) {
	sys, err := systems.Build(systems.KindVolatile, mem.NewSpace(), systems.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(sys, nil, mem.TextBase, Config{ForcedCheckpointPeriod: 500})
	m.cycle, m.results, m.output = 1000, []uint32{7}, []byte("x")
	m.regs[5] = 42
	replicas := func() (*Machine, *Machine) {
		return m.Fork(power.NewAt(1200)), m.Fork(power.NewAt(1200))
	}
	if a, b := replicas(); !a.EqualState(b) {
		t.Fatal("two replicas of one machine compare unequal")
	}
	a, b := replicas()
	b.cycle += 300
	b.nextFailure += 300
	b.nextForced += 300
	if !a.EqualState(b) {
		t.Fatal("replicas shifted in time compare unequal")
	}
	for _, p := range []struct {
		name    string
		perturb func(m *Machine)
	}{
		{"pc", func(m *Machine) { m.pc += 4 }},
		{"register", func(m *Machine) { m.regs[5]++ }},
		{"extra Results word", func(m *Machine) { m.results = append(m.results, 7) }},
		{"output byte", func(m *Machine) { m.output = append(m.output, 'y') }},
		{"halted", func(m *Machine) { m.halted = true }},
		{"exit code", func(m *Machine) { m.exitCode = 1 }},
		{"stack fault", func(m *Machine) { m.stackFault = true }},
		{"failures enabled", func(m *Machine) { m.failEnabled = false }},
		{"next failure", func(m *Machine) { m.nextFailure++ }},
		{"no next failure", func(m *Machine) { m.nextFailure = power.NoFailure }},
		{"next forced checkpoint", func(m *Machine) { m.nextForced-- }},
		{"clock alone", func(m *Machine) { m.cycle++ }},
		{"NVM word", func(m *Machine) { m.sys.Mem().WriteRaw(0x2_0000, 4, 1) }},
	} {
		a, b := replicas()
		p.perturb(b)
		if a.EqualState(b) || b.EqualState(a) {
			t.Errorf("%s: perturbed replica compares equal", p.name)
		}
	}
}

// TestMachineAppliesEngineRule pins that New and Fork run a machine on the
// engine Executed names: the referee switch reaches the reference
// interpreter (the engine comparisons would otherwise compare AOT with
// itself), and a fork, being trace-free, runs on AOT unless Reference is set.
func TestMachineAppliesEngineRule(t *testing.T) {
	for _, reference := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			sys, err := systems.Build(systems.KindVolatile, mem.NewSpace(), systems.Config{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Reference: reference}
			if traced {
				cfg.Trace = trace.NewRecorder(io.Discard)
			}
			m := New(sys, nil, mem.TextBase, cfg)
			if want := Executed(reference, traced); m.engine != want {
				t.Errorf("New(reference=%v, traced=%v) runs on %q, want %q", reference, traced, m.engine, want)
			}
			if f, want := m.Fork(nil), Executed(reference, false); f.engine != want {
				t.Errorf("Fork of (reference=%v, traced=%v) runs on %q, want %q", reference, traced, f.engine, want)
			}
		}
	}
}
