package emu

import "fmt"

// Engine selects the execution engine for a run. Both engines are required
// to produce byte-identical results, error strings, cycle counts, and final
// state — the engine-equivalence suite in internal/harness enforces it — so
// the selector is a performance and debugging knob, never a semantics knob.
// Probed runs always execute on the reference interpreter regardless of the
// selection: it is the sole emitter of per-instruction events.
type Engine string

const (
	// EngineAuto (the zero value) picks the fastest correct engine for the
	// run: the AOT engine, unless a probe forces the reference interpreter.
	EngineAuto Engine = ""
	// EngineRef is the per-instruction reference interpreter: the behavioral
	// specification, the differential oracle, and the only engine that emits
	// per-instruction probe events.
	EngineRef Engine = "ref"
	// EngineAOT executes the ahead-of-time compiled threaded-code IR
	// (internal/compile): pre-decoded operands, pre-resolved branch targets,
	// fused superinstructions, batched ALU runs below the safe horizon, and
	// direct-port or fast-port memory access.
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
// input validate with ParseEngine first and report the error. The harness
// keys its run cache on the resolved value.
func (e Engine) Resolve() Engine {
	switch e {
	case EngineAuto, EngineAOT:
		return EngineAOT
	default:
		return EngineRef
	}
}
