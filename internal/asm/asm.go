// Package asm implements a two-pass assembler for RV32IM used to build the
// benchmark programs of the NACHO reproduction.
//
// The paper compiles its benchmarks with clang 16 at -O3 (Section 6.1.1);
// this repository instead assembles hand-written, register-allocated RISC-V
// sources (see DESIGN.md, substitution table). The assembler supports the
// common GNU-style subset: labels, `.text`/`.data` sections, data directives
// (.word/.half/.byte/.asciz/.space/.balign/.align), integer expressions with
// symbols, and the standard pseudo-instructions (li, la, mv, j, call, ret,
// beqz, bgt, ...).
package asm

import (
	"fmt"
	"sort"
	"strings"

	"nacho/internal/isa"
	"nacho/internal/mem"
)

// Options configures section base addresses for assembly.
type Options struct {
	TextBase uint32 // load address of the .text section
	DataBase uint32 // load address of the .data section
}

// DefaultOptions places .text and .data at the memory map's TextBase and
// DataBase (package mem).
func DefaultOptions() Options {
	return Options{TextBase: mem.TextBase, DataBase: mem.DataBase}
}

// Segment is a contiguous chunk of the assembled image.
type Segment struct {
	Addr uint32
	Data []byte
}

// Program is the result of assembling one source: loadable segments, the
// entry point (the `_start` symbol if present, otherwise the start of .text),
// and the full symbol table.
type Program struct {
	Entry    uint32
	Segments []Segment
	Symbols  map[string]uint32
}

// Symbol returns the address of a defined symbol.
func (p *Program) Symbol(name string) (uint32, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// Error is an assembly diagnostic carrying the 1-based source line.
type Error struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type section int

const (
	secText section = iota
	secData
)

// item is one unit of output: either an instruction to encode in pass 2 or
// raw data bytes.
type item struct {
	line    int
	sec     section
	addr    uint32
	size    uint32
	mnem    string   // instruction mnemonic ("" for data)
	ops     []string // raw operand strings
	data    []byte   // literal data bytes (directives)
	wordExx []expr   // unresolved .word/.half/.byte expressions
	elemSz  uint32   // element size for wordExx
}

// Assemble translates source text into a loadable program image.
func Assemble(src string, opts Options) (*Program, error) {
	a := &assembler{
		opts:    opts,
		symbols: make(map[string]uint32),
		lc:      map[section]uint32{secText: opts.TextBase, secData: opts.DataBase},
	}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	return a.pass2()
}

type assembler struct {
	opts    Options
	symbols map[string]uint32
	items   []item
	lc      map[section]uint32 // location counters
	cur     section
}

func (a *assembler) here() uint32 { return a.lc[a.cur] }

func (a *assembler) emit(it item) {
	it.sec = a.cur
	it.addr = a.here()
	a.items = append(a.items, it)
	a.lc[a.cur] += it.size
}

func (a *assembler) pass1(src string) error {
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		text := stripComment(raw)
		// Peel off any leading labels.
		for {
			trimmed := strings.TrimSpace(text)
			idx := labelEnd(trimmed)
			if idx < 0 {
				text = trimmed
				break
			}
			name := trimmed[:idx]
			if !validSymbol(name) {
				return errf(line, "invalid label %q", name)
			}
			if _, dup := a.symbols[name]; dup {
				return errf(line, "duplicate label %q", name)
			}
			a.symbols[name] = a.here()
			text = trimmed[idx+1:]
		}
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ".") {
			if err := a.directive(line, text); err != nil {
				return err
			}
			continue
		}
		mnem, ops, err := splitInstr(line, text)
		if err != nil {
			return err
		}
		n, err := instrWords(line, mnem, ops)
		if err != nil {
			return err
		}
		a.emit(item{line: line, size: uint32(4 * n), mnem: mnem, ops: ops})
	}
	return nil
}

// labelEnd returns the index of the ':' terminating a leading label, or -1.
func labelEnd(s string) int {
	for i, c := range s {
		switch {
		case c == ':':
			if i == 0 {
				return -1
			}
			return i
		case isSymbolChar(byte(c), i == 0):
			continue
		default:
			return -1
		}
	}
	return -1
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '"':
			inStr = !inStr
		case inStr:
			if s[i] == '\\' {
				i++
			}
		case s[i] == '#':
			return s[:i]
		case s[i] == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

func isSymbolChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '.' || c == '$' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func validSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isSymbolChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

// splitInstr separates a mnemonic from its comma-separated operand list.
func splitInstr(line int, text string) (string, []string, error) {
	sp := strings.IndexAny(text, " \t")
	if sp < 0 {
		return strings.ToLower(text), nil, nil
	}
	mnem := strings.ToLower(text[:sp])
	rest := strings.TrimSpace(text[sp+1:])
	if rest == "" {
		return mnem, nil, nil
	}
	var ops []string
	depth := 0
	start := 0
	inStr := false
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			ops = append(ops, strings.TrimSpace(rest[start:i]))
			start = i + 1
		}
	}
	if depth != 0 || inStr {
		return "", nil, errf(line, "unbalanced parentheses or quotes in %q", text)
	}
	ops = append(ops, strings.TrimSpace(rest[start:]))
	for _, o := range ops {
		if o == "" {
			return "", nil, errf(line, "empty operand in %q", text)
		}
	}
	return mnem, ops, nil
}

func (a *assembler) pass2() (*Program, error) {
	images := map[section][]byte{}
	base := map[section]uint32{secText: a.opts.TextBase, secData: a.opts.DataBase}
	for _, it := range a.items {
		img := images[it.sec]
		off := it.addr - base[it.sec]
		for uint32(len(img)) < off {
			img = append(img, 0)
		}
		var bytesOut []byte
		switch {
		case it.mnem != "":
			instrs, err := a.encodeInstr(it)
			if err != nil {
				return nil, err
			}
			for _, in := range instrs {
				w, err := isa.Encode(in)
				if err != nil {
					return nil, errf(it.line, "%v", err)
				}
				bytesOut = append(bytesOut, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
			}
		case it.wordExx != nil:
			for _, e := range it.wordExx {
				v, err := a.eval(it.line, e)
				if err != nil {
					return nil, err
				}
				u := uint32(v)
				switch it.elemSz {
				case 1:
					if v < -128 || v > 255 {
						return nil, errf(it.line, ".byte value %d out of range", v)
					}
					bytesOut = append(bytesOut, byte(u))
				case 2:
					if v < -32768 || v > 65535 {
						return nil, errf(it.line, ".half value %d out of range", v)
					}
					bytesOut = append(bytesOut, byte(u), byte(u>>8))
				default:
					bytesOut = append(bytesOut, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
				}
			}
		default:
			bytesOut = it.data
		}
		if uint32(len(bytesOut)) > it.size {
			return nil, errf(it.line, "internal: item grew from %d to %d bytes", it.size, len(bytesOut))
		}
		img = append(img, bytesOut...)
		for uint32(len(img)) < off+it.size {
			img = append(img, 0)
		}
		images[it.sec] = img
	}

	p := &Program{Symbols: a.symbols}
	var secs []section
	for s := range images {
		secs = append(secs, s)
	}
	sort.Slice(secs, func(i, j int) bool { return base[secs[i]] < base[secs[j]] })
	for _, s := range secs {
		if len(images[s]) > 0 {
			p.Segments = append(p.Segments, Segment{Addr: base[s], Data: images[s]})
		}
	}
	if e, ok := a.symbols["_start"]; ok {
		p.Entry = e
	} else {
		p.Entry = a.opts.TextBase
	}
	return p, nil
}
