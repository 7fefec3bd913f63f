package emu

// Engine names the execution engine a machine runs on. Both engines are
// required to produce byte-identical results, error strings, cycle counts,
// final state and probe event streams — the engine-equivalence suite in
// internal/harness enforces it — so which engine runs never changes a
// result. Both engines reach the memory system through the same load/store
// path. Executed decides the engine; the name is what observability reports.
type Engine string

const (
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

// Executed is the one engine rule: the engine a machine runs on. The
// reference interpreter runs when a trace is attached, because only its
// per-instruction step feeds the trace, or when reference is set (the
// referee switch, Config.Reference); every other run, probed and verified
// runs included, executes on the AOT engine. emu.New and Machine.Fork apply
// the rule once per machine, and the harness reports the same answer in its
// run span, ledger and timing line.
func Executed(reference, traced bool) Engine {
	if reference || traced {
		return EngineRef
	}
	return EngineAOT
}
