// Package fuzzer implements the crash-consistency fuzzing subsystem: a
// seeded random RV32IM program generator plus a differential oracle that
// runs every generated program on the Volatile baseline (failure-free) and
// on each memory system under randomized power-failure schedules, comparing
// final NVM state, architectural registers, the reported result, and the
// shadow-memory/WAR verdicts of the exact verifier. Divergences are
// findings; findings are delta-debugged down to replayable JSON artifacts.
//
// The paper's safety claim — that NACHO's two-bit WAR protocol and stack
// tracking preserve memory consistency under arbitrary power failures —
// is only as strong as the access patterns that exercise it. The generator
// is deliberately biased toward the idioms that break intermittent systems:
// read-modify-write on the same address (WAR hazards), buffers revisited
// across loop iterations (eviction pressure on few cache sets), and
// call/return with dead frames (stack-tracking coverage).
package fuzzer

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"nacho/internal/asm"
	"nacho/internal/emu"
	"nacho/internal/isa"
	"nacho/internal/mem"
	"nacho/internal/program"
)

// Params bound the shape of one generated program.
type Params struct {
	// Ops is the number of top-level operations in the program body.
	Ops int `json:"ops"`
	// BufWords is the size of the in-NVM data buffer, in 32-bit words. Small
	// buffers concentrate accesses onto few cache sets, maximizing eviction
	// and WAR pressure.
	BufWords int `json:"buf_words"`
	// MaxLoop caps loop iteration counts, bounding total work (generated
	// programs terminate by construction: loops count down, calls don't
	// recurse).
	MaxLoop int `json:"max_loop"`
	// MaxDepth caps loop nesting (at most 3: one saved register per level).
	MaxDepth int `json:"max_depth"`
}

func (p Params) normalized() Params {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	p.Ops = clamp(p.Ops, 1, 64)
	p.BufWords = clamp(p.BufWords, 4, 256)
	p.MaxLoop = clamp(p.MaxLoop, 1, 16)
	p.MaxDepth = clamp(p.MaxDepth, 0, len(loopRegs))
	return p
}

// OpKind enumerates the generator's operation alphabet. Programs are trees
// of Ops rather than flat instruction lists so the minimizer can delete or
// unwrap whole structured regions and every candidate still renders to a
// well-formed program (no dangling branch targets).
type OpKind int

// The operation alphabet.
const (
	OpSetReg OpKind = iota // load a constant into a scratch register
	OpALU                  // three-register ALU/mul/div operation
	OpLoad                 // load from the data buffer
	OpStore                // store to the data buffer
	OpRMW                  // in-place read-modify-write of one buffer word
	OpLoop                 // bounded counted loop around Body
	OpCall                 // call a function containing Body
)

// Op is one node of a generated program. R, S, T index the scratch-register
// pool; V carries the operation's value (constant, buffer offset, ALU
// selector, or loop count); Body holds nested operations for loops/calls.
type Op struct {
	Kind OpKind `json:"k"`
	R    int    `json:"r,omitempty"`
	S    int    `json:"s,omitempty"`
	T    int    `json:"t,omitempty"`
	V    int64  `json:"v,omitempty"`
	Body []Op   `json:"body,omitempty"`
}

// Prog is one generated program: the seed and parameters that produced it
// plus its operation tree. Rendering is a pure function of this value.
type Prog struct {
	Seed   int64  `json:"seed"`
	Params Params `json:"params"`
	Ops    []Op   `json:"ops"`
}

// Register conventions of rendered programs:
//
//	s0          buffer base (mem.DataBase)
//	s1, s2, s3  loop counters, by nesting depth
//	t0-t6, a0-a7  scratch pool (Op.R/S/T index into this)
//
// Functions save ra and the loop counters, so call bodies may loop freely.
var (
	scratchRegs = []isa.Reg{
		isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.T6,
		isa.A0, isa.A1, isa.A2, isa.A3, isa.A4, isa.A5, isa.A6, isa.A7,
	}
	loopRegs = []isa.Reg{isa.S1, isa.S2, isa.S3}
	aluOps   = []isa.Op{
		isa.ADD, isa.SUB, isa.XOR, isa.OR, isa.AND, isa.SLT, isa.SLTU,
		isa.MUL, isa.SLL, isa.SRL, isa.SRA, isa.DIV, isa.REM,
	}
)

func newSeedRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// RandomParams draws program-shape parameters from rng.
func RandomParams(rng *rand.Rand) Params {
	return Params{
		Ops: 6 + rng.Intn(24),
		// 256 B - 1 KiB: buffers up to twice the default 512 B cache, so
		// conflict misses (and therefore dirty evictions, the WAR protocol's
		// decision point) actually occur.
		BufWords: 64 + rng.Intn(193),
		MaxLoop:  1 + rng.Intn(5),
		MaxDepth: 1 + rng.Intn(3),
	}
}

// Generate builds the program for one seed: parameters and operation tree
// both derive from the seed, so equal seeds yield identical programs.
func Generate(seed int64) *Prog {
	rng := rand.New(rand.NewSource(seed))
	return GenerateWith(seed, RandomParams(rng), rng)
}

// GenerateWith builds a program with explicit parameters, drawing the
// operation tree from rng. The native fuzz harnesses use it to let the
// fuzz engine steer the shape independently of the tree.
func GenerateWith(seed int64, p Params, rng *rand.Rand) *Prog {
	p = p.normalized()
	return &Prog{Seed: seed, Params: p, Ops: genOps(rng, p, p.Ops, 0, false)}
}

// offsetV draws a buffer offset clustered on a 64-byte grid (with a small
// byte jitter for sub-word accesses). With 64 cache sets of 4-byte lines,
// uniformly random offsets almost never put three accesses in one set
// between two checkpoints; the grid folds a kilobyte buffer onto a handful
// of sets, so evictions — the WAR protocol's decision point — are routine.
func offsetV(rng *rand.Rand) int64 {
	return int64(rng.Intn(16))*64 + int64(rng.Intn(4))
}

// genOps draws n operations at the given loop depth. inCall suppresses
// nested calls (rendered functions must not recurse — termination is
// structural, not checked).
func genOps(rng *rand.Rand, p Params, n, depth int, inCall bool) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		roll := rng.Intn(100)
		switch {
		case roll < 12:
			ops = append(ops, Op{Kind: OpSetReg, R: rng.Intn(len(scratchRegs)), V: int64(int32(rng.Uint32()))})
		case roll < 26:
			ops = append(ops, Op{
				Kind: OpALU,
				R:    rng.Intn(len(scratchRegs)), S: rng.Intn(len(scratchRegs)), T: rng.Intn(len(scratchRegs)),
				V: int64(rng.Intn(len(aluOps))),
			})
		case roll < 46:
			ops = append(ops, Op{Kind: OpLoad, R: rng.Intn(len(scratchRegs)), S: rng.Intn(3), V: offsetV(rng)})
		case roll < 66:
			ops = append(ops, Op{Kind: OpStore, R: rng.Intn(len(scratchRegs)), S: rng.Intn(3), V: offsetV(rng)})
		case roll < 80:
			ops = append(ops, Op{Kind: OpRMW, R: rng.Intn(len(scratchRegs)), V: offsetV(rng)})
		case roll < 93 && depth < p.MaxDepth:
			ops = append(ops, Op{
				Kind: OpLoop,
				V:    int64(1 + rng.Intn(p.MaxLoop)),
				Body: genOps(rng, p, 1+rng.Intn(5), depth+1, inCall),
			})
		case !inCall:
			ops = append(ops, Op{Kind: OpCall, Body: genOps(rng, p, 1+rng.Intn(6), 0, true)})
		default:
			ops = append(ops, Op{Kind: OpRMW, R: rng.Intn(len(scratchRegs)), V: rng.Int63()})
		}
	}
	return ops
}

// renderer lowers an op tree to a flat instruction list. Calls are emitted
// as JAL placeholders and their bodies collected; after the main body's
// halt sequence the functions are appended and the JALs patched.
type renderer struct {
	bufBytes int
	maxLoop  int64
	instrs   []isa.Instr
	calls    []callSite
	funcs    [][]Op
}

type callSite struct{ at, fn int }

func (r *renderer) emit(in isa.Instr) { r.instrs = append(r.instrs, in) }

// li loads a 32-bit constant via the standard lui/addi split.
func (r *renderer) li(rd isa.Reg, v int32) {
	lo := v << 20 >> 20 // sign-extended low 12 bits
	hi := uint32(v) - uint32(lo)
	if hi != 0 {
		r.emit(isa.Instr{Op: isa.LUI, Rd: rd, Imm: int32(hi)})
		if lo != 0 {
			r.emit(isa.Instr{Op: isa.ADDI, Rd: rd, Rs1: rd, Imm: lo})
		}
		return
	}
	r.emit(isa.Instr{Op: isa.ADDI, Rd: rd, Rs1: isa.Zero, Imm: lo})
}

// bufOffset folds an arbitrary V into an in-bounds, size-aligned buffer
// offset, so every rendered access stays inside the data segment no matter
// what the minimizer or fuzz engine put in V.
func (r *renderer) bufOffset(v int64, size int) int32 {
	off := int(v % int64(r.bufBytes))
	if off < 0 {
		off = -off
	}
	off &^= size - 1
	if off+size > r.bufBytes {
		off = 0
	}
	return int32(off)
}

func (r *renderer) renderOps(ops []Op, depth int, inFunc bool) {
	for _, op := range ops {
		r.renderOp(op, depth, inFunc)
	}
}

func (r *renderer) renderOp(op Op, depth int, inFunc bool) {
	nScratch := len(scratchRegs)
	reg := func(i int) isa.Reg {
		if i < 0 {
			i = -i
		}
		return scratchRegs[i%nScratch]
	}
	switch op.Kind {
	case OpSetReg:
		r.li(reg(op.R), int32(op.V))
	case OpALU:
		sel := op.V
		if sel < 0 {
			sel = -sel
		}
		r.emit(isa.Instr{Op: aluOps[sel%int64(len(aluOps))], Rd: reg(op.R), Rs1: reg(op.S), Rs2: reg(op.T)})
	case OpLoad:
		sizes := [3]int{1, 2, 4}
		loads := [3]isa.Op{isa.LBU, isa.LHU, isa.LW}
		i := op.S
		if i < 0 {
			i = -i
		}
		i %= 3
		r.emit(isa.Instr{Op: loads[i], Rd: reg(op.R), Rs1: isa.S0, Imm: r.bufOffset(op.V, sizes[i])})
	case OpStore:
		sizes := [3]int{1, 2, 4}
		stores := [3]isa.Op{isa.SB, isa.SH, isa.SW}
		i := op.S
		if i < 0 {
			i = -i
		}
		i %= 3
		r.emit(isa.Instr{Op: stores[i], Rs1: isa.S0, Rs2: reg(op.R), Imm: r.bufOffset(op.V, sizes[i])})
	case OpRMW:
		// The canonical WAR idiom: load a word, mutate it, store it back.
		off := r.bufOffset(op.V, 4)
		t := reg(op.R)
		r.emit(isa.Instr{Op: isa.LW, Rd: t, Rs1: isa.S0, Imm: off})
		delta := int32(1 + (op.V>>3)&0x3ff)
		r.emit(isa.Instr{Op: isa.ADDI, Rd: t, Rs1: t, Imm: delta})
		r.emit(isa.Instr{Op: isa.SW, Rs1: isa.S0, Rs2: t, Imm: off})
	case OpLoop:
		if depth >= len(loopRegs) {
			// No counter register left: render the body once, unlooped.
			r.renderOps(op.Body, depth, inFunc)
			return
		}
		cnt := op.V
		if cnt < 1 {
			cnt = 1
		}
		if cnt > r.maxLoop {
			cnt = r.maxLoop
		}
		lr := loopRegs[depth]
		r.emit(isa.Instr{Op: isa.ADDI, Rd: lr, Rs1: isa.Zero, Imm: int32(cnt)})
		head := len(r.instrs)
		r.renderOps(op.Body, depth+1, inFunc)
		r.emit(isa.Instr{Op: isa.ADDI, Rd: lr, Rs1: lr, Imm: -1})
		r.emit(isa.Instr{Op: isa.BNE, Rs1: lr, Rs2: isa.Zero, Imm: int32(head-len(r.instrs)) * 4})
	case OpCall:
		if inFunc {
			// Functions never call: inline the body instead.
			r.renderOps(op.Body, depth, inFunc)
			return
		}
		r.calls = append(r.calls, callSite{at: len(r.instrs), fn: len(r.funcs)})
		r.funcs = append(r.funcs, op.Body)
		r.emit(isa.Instr{Op: isa.JAL, Rd: isa.RA}) // Imm patched in pass 2
	}
}

// renderFunc emits one called function. The prologue spills ra and the loop
// counters plus two dead scratch values — the dead stores give NACHO's
// stack tracking real frames to drop — and the body restarts loop depth at
// zero against the saved counters.
func (r *renderer) renderFunc(body []Op) int {
	entry := len(r.instrs)
	r.emit(isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP, Imm: -32})
	saves := []struct {
		reg isa.Reg
		off int32
	}{{isa.RA, 28}, {isa.S1, 24}, {isa.S2, 20}, {isa.S3, 16}, {isa.T0, 12}, {isa.T1, 8}}
	for _, s := range saves {
		r.emit(isa.Instr{Op: isa.SW, Rs1: isa.SP, Rs2: s.reg, Imm: s.off})
	}
	r.renderOps(body, 0, true)
	for _, s := range saves[:4] { // t0/t1 stay dead: frame dies unread
		r.emit(isa.Instr{Op: isa.LW, Rd: s.reg, Rs1: isa.SP, Imm: s.off})
	}
	r.emit(isa.Instr{Op: isa.ADDI, Rd: isa.SP, Rs1: isa.SP, Imm: 32})
	r.emit(isa.Instr{Op: isa.JALR, Rd: isa.Zero, Rs1: isa.RA})
	return entry
}

// Render lowers the program to an executable image against the standard
// memory layout: text at mem.TextBase, the data buffer at
// mem.DataBase (deterministically initialized from the seed), entry at
// the first text word. The halt sequence reports the current a0 through the
// RESULT MMIO word and exits with status 0.
func (p *Prog) Render() (*program.Image, error) {
	params := p.Params.normalized()
	r := &renderer{bufBytes: params.BufWords * 4, maxLoop: int64(params.MaxLoop)}

	r.li(isa.S0, int32(mem.DataBase))
	r.renderOps(p.Ops, 0, false)
	r.emit(isa.Instr{Op: isa.LUI, Rd: isa.T0, Imm: int32(emu.MMIOBase)})
	r.emit(isa.Instr{Op: isa.SW, Rs1: isa.T0, Rs2: isa.A0, Imm: emu.ResultAddr - emu.MMIOBase})
	r.emit(isa.Instr{Op: isa.SW, Rs1: isa.T0, Rs2: isa.Zero, Imm: emu.ExitAddr - emu.MMIOBase})

	entries := make([]int, len(r.funcs))
	for i, body := range r.funcs {
		entries[i] = r.renderFunc(body)
	}
	for _, c := range r.calls {
		r.instrs[c.at].Imm = int32(entries[c.fn]-c.at) * 4
	}

	text := make([]byte, 4*len(r.instrs))
	for i, in := range r.instrs {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, fmt.Errorf("fuzzer: seed %d instr %d (%v): %w", p.Seed, i, in, err)
		}
		binary.LittleEndian.PutUint32(text[4*i:], w)
	}
	// Round-trip through the real decoder so img.Text is exactly what a
	// loader would execute (sign conventions and all).
	decoded, err := emu.DecodeText(text)
	if err != nil {
		return nil, fmt.Errorf("fuzzer: seed %d: %w", p.Seed, err)
	}

	data := make([]byte, r.bufBytes)
	x := uint32(p.Seed)
	if x == 0 {
		x = 0x9E3779B9
	}
	for i := 0; i < len(data); i += 4 {
		x = program.XorShift32(x)
		binary.LittleEndian.PutUint32(data[i:], x)
	}

	return &program.Image{
		Program:  &program.Program{Name: fmt.Sprintf("fuzz-seed%d", p.Seed), Description: "fuzzer-generated"},
		Segments: []asm.Segment{{Addr: mem.TextBase, Data: text}, {Addr: mem.DataBase, Data: data}},
		Text:     decoded,
		Entry:    mem.TextBase,
	}, nil
}

// Listing disassembles the rendered program, one line per instruction.
func (p *Prog) Listing() ([]string, error) {
	img, err := p.Render()
	if err != nil {
		return nil, err
	}
	out := make([]string, img.Text.Len())
	for i, in := range img.Text.Instrs {
		out[i] = fmt.Sprintf("%08x: %s", mem.TextBase+uint32(4*i), in)
	}
	return out, nil
}
