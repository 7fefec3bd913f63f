package emu

import (
	"nacho/internal/compile"
	"nacho/internal/isa"
)

// Text is a decoded text segment plus its AOT-compiled IR. The text segment
// is immutable for the life of a run (there is no self-modifying code: stores
// to the text range would go through the memory system, which the loader
// never maps over text), so the compilation runs once — at DecodeText time —
// and every run of the same image shares it. Build one with DecodeText (from
// assembled bytes) or NewText (from in-memory instructions); the zero value
// is an empty segment.
type Text struct {
	// Instrs is the decoded instruction sequence, one entry per word.
	Instrs []isa.Instr

	// prog is the AOT-compiled threaded-code IR (internal/compile). The IR
	// is immutable after compilation.
	prog *compile.Program
}

// NewText compiles an instruction sequence into a Text. The slice is
// retained, not copied; callers must not mutate it afterwards.
func NewText(instrs []isa.Instr) *Text {
	return &Text{Instrs: instrs, prog: compile.Compile(instrs)}
}

// Compiled exposes the AOT IR program (tests and tooling).
func (t *Text) Compiled() *compile.Program { return t.prog }

// Len returns the number of instructions in the segment.
func (t *Text) Len() int { return len(t.Instrs) }
