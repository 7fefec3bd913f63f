package emu

import "fmt"

// Engine selects the execution engine for a run. Both engines are required
// to produce byte-identical results, error strings, cycle counts, final
// state and probe event streams — the engine-equivalence suite in
// internal/harness enforces it — so the selector is a performance and
// debugging knob, never a semantics knob. Both engines reach the memory
// system through the same load/store path. Engine.Executed states which
// engine a machine actually runs on.
type Engine string

const (
	// EngineAuto (the zero value) picks the fastest correct engine for the
	// run: the AOT engine, unless a trace needs the reference interpreter.
	EngineAuto Engine = ""
	// EngineRef is the per-instruction reference interpreter: the behavioral
	// specification, the differential oracle, and the only engine that feeds
	// the per-instruction trace.
	EngineRef Engine = "ref"
	// EngineAOT executes the ahead-of-time compiled threaded-code IR
	// (internal/compile), one slot per instruction: pre-decoded operands,
	// pre-resolved branch targets, and batched ALU runs below the safe
	// horizon.
	EngineAOT Engine = "aot"
)

// Engines lists the accepted -engine spellings, for CLI help strings.
const Engines = "auto, ref, aot"

// ParseEngine validates an engine name from a CLI flag or config field. The
// empty string and "auto" both select EngineAuto.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "ref":
		return EngineRef, nil
	case "aot":
		return EngineAOT, nil
	}
	return EngineAuto, fmt.Errorf("emu: unknown engine %q (valid: %s)", s, Engines)
}

// Resolve returns the concrete engine e selects: EngineAuto resolves to
// EngineAOT. An unrecognized value degrades to the reference interpreter —
// always correct — rather than guessing; config layers that accept user
// input validate with ParseEngine first and report the error.
func (e Engine) Resolve() Engine {
	switch e {
	case EngineAuto, EngineAOT:
		return EngineAOT
	default:
		return EngineRef
	}
}

// Executed is the one engine rule: the engine a machine configured with e
// runs on. The reference interpreter runs when e resolves to it or when a
// trace is attached, because only its per-instruction step feeds the trace;
// every other run, probed and verified runs included, executes on the
// resolved engine. emu.New applies the rule once per machine, and the
// harness reports the same answer in its run span, ledger and timing line.
func (e Engine) Executed(traced bool) Engine {
	if traced {
		return EngineRef
	}
	return e.Resolve()
}
