package emu_test

import (
	"errors"
	"fmt"
	"testing"

	"nacho/internal/emu"
	"nacho/internal/metrics"
	"nacho/internal/power"
	"nacho/internal/sim"
	"nacho/internal/systems"
	"nacho/internal/verify"
)

// corrupting wraps a memory system and corrupts what the CPU receives from
// it: it flips bit 0 of the value its flipLoad-th load returns, and drops
// its dropStore-th store before the system sees it (both counted from 1; 0
// corrupts nothing). The system's own state and events stay those of an
// uncorrupted run up to that access, so only a verifier that checks the
// value the CPU received can tell.
type corrupting struct {
	sim.System
	flipLoad, dropStore int
	loads, stores       int
	corrupted           bool
}

func (c *corrupting) Load(addr uint32, size int) uint32 {
	v := c.System.Load(addr, size)
	if c.loads++; c.loads == c.flipLoad {
		v ^= 1
		c.corrupted = true
	}
	return v
}

func (c *corrupting) Store(addr uint32, size int, val uint32) {
	if c.stores++; c.stores == c.dropStore {
		c.corrupted = true
		return
	}
	c.System.Store(addr, size, val)
}

// Fork replicates the wrapper around the inner system's fork, so the fork
// corrupts the same access the parent would.
func (c *corrupting) Fork(clk sim.Clock, regs sim.RegSource, counters *metrics.Counters) sim.System {
	f := *c
	f.System = c.System.Fork(clk, regs, counters)
	return &f
}

// storeLoadSrc stores i to the i-th word of a zeroed buffer and loads it
// straight back, for i = 1..16: the i-th load returns the i-th store's
// value, so a flipped load and a dropped store both reach the CPU.
const storeLoadSrc = `
	.data
buf:	.space 64
	.text
_start:
	la   a3, buf
	li   a1, 1
loop:
	sw   a1, (a3)
	lw   a0, (a3)
	addi a3, a3, 4
	addi a1, a1, 1
	li   t1, 17
	bne  a1, t1, loop
` + epilogue

// verifiedMachine builds a machine running storeLoadSrc on kind behind a
// corrupting wrapper, verified the way the harness verifies a run: the
// verifier's shadow forks the loaded image, and the verifier is both the
// machine's Verifier and its Probe.
func verifiedMachine(t *testing.T, kind systems.Kind, reference bool, c *corrupting) (*emu.Machine, *verify.Verifier) {
	t.Helper()
	space, text, entry := load(t, storeLoadSrc)
	ver := verify.New(space, systems.VerifyConfigFor(kind))
	c.System = build(t, kind, space.Fork())
	m := emu.New(c, text, entry, emu.Config{Probe: ver, Verifier: ver, Reference: reference})
	return m, ver
}

// TestVerifierSeesWhatTheCPUReceived proves the shadow check compares the
// value the CPU received, on both engines: a load whose returned value a
// wrapping layer flips, or a store it drops, must fail a verified run with
// a shadow mismatch, while the unwrapped run passes.
func TestVerifierSeesWhatTheCPUReceived(t *testing.T) {
	corruptions := []struct {
		name string
		c    corrupting
		want bool // a shadow mismatch is expected
	}{
		{"none", corrupting{}, false},
		{"flip-load-5", corrupting{flipLoad: 5}, true},
		{"drop-store-5", corrupting{dropStore: 5}, true},
	}
	for _, kind := range []systems.Kind{systems.KindVolatile, systems.KindNACHO, systems.KindClank} {
		for _, reference := range []bool{true, false} {
			for _, tc := range corruptions {
				t.Run(fmt.Sprintf("%s/reference=%t/%s", kind, reference, tc.name), func(t *testing.T) {
					c := tc.c
					m, ver := verifiedMachine(t, kind, reference, &c)
					if _, err := m.Run(); err != nil {
						t.Fatal(err)
					}
					if c.corrupted != tc.want {
						t.Fatalf("corrupted = %t, want %t", c.corrupted, tc.want)
					}
					var v verify.Violation
					got := errors.As(ver.Err(), &v) && v.Kind == verify.ShadowMismatch
					if got != tc.want {
						t.Errorf("verifier error %v; want a shadow mismatch: %t", ver.Err(), tc.want)
					}
				})
			}
		}
	}
}

// TestForkFeedsNoVerifier: a fork of a verified machine runs verifier-free.
// The fork corrupts a load that its parent's verifier would catch, yet the
// parent's verifier stays clean after the fork has run; the parent, run on
// to the same load, does catch it.
func TestForkFeedsNoVerifier(t *testing.T) {
	for _, reference := range []bool{true, false} {
		c := corrupting{flipLoad: 8}
		m, ver := verifiedMachine(t, systems.KindNACHO, reference, &c)
		if _, err := m.RunUntil(20); err != nil {
			t.Fatal(err)
		}
		if c.loads >= c.flipLoad {
			t.Fatalf("reference=%t: the prefix ran %d loads, past the corrupted one", reference, c.loads)
		}
		f := m.Fork(power.None{})
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
		if !f.System().(*corrupting).corrupted {
			t.Fatalf("reference=%t: the fork never reached its corrupted load", reference)
		}
		if err := ver.Err(); err != nil {
			t.Errorf("reference=%t: the fork fed its parent's verifier: %v", reference, err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if ver.Err() == nil {
			t.Errorf("reference=%t: the parent's verifier missed the corrupted load", reference)
		}
	}
}
