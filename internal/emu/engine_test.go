package emu_test

import (
	"testing"

	"nacho/internal/emu"
	"nacho/internal/isa"
	"nacho/internal/systems"
)

// TestExecutedEngine pins the one engine rule: only the referee switch or a
// trace selects the reference interpreter; every other run executes on AOT.
func TestExecutedEngine(t *testing.T) {
	cases := []struct {
		reference, traced bool
		want              emu.Engine
	}{
		{false, false, emu.EngineAOT},
		{true, false, emu.EngineRef},
		{false, true, emu.EngineRef},
		{true, true, emu.EngineRef},
	}
	for _, tc := range cases {
		if got := emu.Executed(tc.reference, tc.traced); got != tc.want {
			t.Errorf("Executed(%v, %v) = %q, want %q", tc.reference, tc.traced, got, tc.want)
		}
	}
}

// TestNoDecodeInHotLoop pins the pre-decode contract: isa.Decode runs only at
// DecodeText time, never per executed instruction, on any engine. The program
// retires far more instructions than its static instruction count, so a
// per-step decode would show up as thousands of extra calls.
func TestNoDecodeInHotLoop(t *testing.T) {
	src := `
_start:
	li   a0, 0
	li   a1, 2000
loop:
	addi a0, a0, 1
	lw   t0, 0(sp)
	sw   t0, 0(sp)
	bne  a0, a1, loop
` + epilogue
	for _, engine := range []emu.Engine{emu.EngineRef, emu.EngineAOT} {
		t.Run(string(engine), func(t *testing.T) {
			// run's assemble+DecodeText stage legitimately decodes each text
			// word once; everything after the baseline snapshot inside the
			// machine run must not decode at all. The decode happens inside
			// run(), so bracket the whole call and bound the growth by the
			// static word count rather than demanding zero.
			before := isa.DecodeCalls()
			res, err := run(t, src, systems.KindVolatile, emu.Config{Reference: engine == emu.EngineRef})
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.Instructions < 8000 {
				t.Fatalf("workload too small to detect per-step decoding: %d instructions", res.Counters.Instructions)
			}
			decodes := isa.DecodeCalls() - before
			if decodes > 64 {
				t.Fatalf("%d isa.Decode calls for a %d-instruction run: hot loop is decoding (image decode alone must stay under the static word count)", decodes, res.Counters.Instructions)
			}
		})
	}
}
