package emu

import (
	"testing"

	"nacho/internal/mem"
	"nacho/internal/power"
	"nacho/internal/systems"
)

// TestEqualState: two replicas of one paused machine compare equal, also at
// different clocks when their cycle-valued fields keep the same distance
// from them, and any single perturbed field makes them unequal.
func TestEqualState(t *testing.T) {
	sys, err := systems.Build(systems.KindVolatile, mem.NewSpace(), systems.Config{Cost: mem.DefaultCostModel()})
	if err != nil {
		t.Fatal(err)
	}
	m := New(sys, nil, 0x1_0000, 0x1_0000, 0xA_0000, Config{ForcedCheckpointPeriod: 500})
	m.cycle, m.results, m.output = 1000, []uint32{7}, []byte("x")
	m.regs[5] = 42
	replicas := func() (*Machine, *Machine) {
		a, err := m.Fork(power.NewAt(1200))
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Fork(power.NewAt(1200))
		if err != nil {
			t.Fatal(err)
		}
		return a, b
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
