package emu_test

import (
	"strings"
	"testing"

	"nacho/internal/emu"
	"nacho/internal/isa"
	"nacho/internal/systems"
)

func TestParseEngine(t *testing.T) {
	valid := map[string]emu.Engine{
		"":     emu.EngineAuto,
		"auto": emu.EngineAuto,
		"ref":  emu.EngineRef,
		"aot":  emu.EngineAOT,
	}
	for s, want := range valid {
		got, err := emu.ParseEngine(s)
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", s, err)
		}
		if got != want {
			t.Fatalf("ParseEngine(%q) = %q, want %q", s, got, want)
		}
	}
	// "fast" named the batched engine the AOT engine replaced; it must fail
	// loudly rather than fall back silently.
	for _, s := range []string{"bogus", "AOT", "reference", "jit", "fast"} {
		_, err := emu.ParseEngine(s)
		if err == nil {
			t.Fatalf("ParseEngine(%q) accepted", s)
		}
		if !strings.Contains(err.Error(), s) {
			t.Fatalf("ParseEngine(%q) error %q does not name the bad value", s, err)
		}
		if !strings.Contains(err.Error(), "auto, ref, aot") {
			t.Fatalf("ParseEngine(%q) error %q does not list the valid spellings", s, err)
		}
	}
}

func TestResolveEngine(t *testing.T) {
	cases := []struct {
		name   string
		engine emu.Engine
		want   emu.Engine
	}{
		{"auto picks aot", emu.EngineAuto, emu.EngineAOT},
		{"explicit ref", emu.EngineRef, emu.EngineRef},
		{"explicit aot", emu.EngineAOT, emu.EngineAOT},
		{"unknown value degrades to ref", emu.Engine("bogus"), emu.EngineRef},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.engine.Resolve(); got != tc.want {
				t.Fatalf("Engine(%q).Resolve() = %q, want %q", tc.engine, got, tc.want)
			}
		})
	}
}

// TestExecutedEngine pins the one engine rule: only Engine ref or a trace
// selects the reference interpreter; nothing else does.
func TestExecutedEngine(t *testing.T) {
	cases := []struct {
		engine emu.Engine
		traced bool
		want   emu.Engine
	}{
		{emu.EngineAuto, false, emu.EngineAOT},
		{emu.EngineAOT, false, emu.EngineAOT},
		{emu.EngineRef, false, emu.EngineRef},
		{emu.EngineAuto, true, emu.EngineRef},
		{emu.EngineAOT, true, emu.EngineRef},
		{emu.EngineRef, true, emu.EngineRef},
	}
	for _, tc := range cases {
		if got := tc.engine.Executed(tc.traced); got != tc.want {
			t.Errorf("Engine(%q).Executed(%v) = %q, want %q", tc.engine, tc.traced, got, tc.want)
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
			res, err := run(t, src, systems.KindVolatile, emu.Config{Engine: engine})
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
