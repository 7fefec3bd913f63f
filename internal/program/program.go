// Package program contains the benchmark suite of paper Section 6.1.1,
// re-created for this reproduction: CoreMark's three kernels, the MiBench
// CRC/SHA/Dijkstra/adpcm workloads, towers, quicksort, TinyAES, and a
// picojpeg-style IDCT kernel. Each benchmark is a hand-written RV32IM
// assembly source paired with a pure-Go reference implementation of exactly
// the same computation; the emulated program must report the reference's
// checksum through the RESULT MMIO register (see DESIGN.md's substitution
// table for why hand-written assembly replaces clang -O3).
//
// All benchmarks share one runtime convention:
//
//	RESULT (0x000F0004)  - store the final checksum here
//	EXIT   (0x000F0000)  - store 0 here to halt
//
// Input data is generated in place by an xorshift32 PRNG implemented
// identically in assembly and in the reference, so sources stay compact and
// the workloads are deterministic.
package program

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nacho/internal/asm"
	"nacho/internal/emu"
	"nacho/internal/mem"
)

// header is prepended to every benchmark source: MMIO addresses and the
// xorshift32 PRNG step used for input generation.
//
// rng_next: a0 = new state (callers keep the state in a saved register).
const header = `
	.equ MMIO_RESULT, 0x000F0004
	.equ MMIO_EXIT,   0x000F0000
	.equ MMIO_PUTC,   0x000F0008
	.text
	j _start

# xorshift32 step: a0 = next(a0). Clobbers t0 only.
rng_next:
	slli t0, a0, 13
	xor  a0, a0, t0
	srli t0, a0, 17
	xor  a0, a0, t0
	slli t0, a0, 5
	xor  a0, a0, t0
	ret
`

// headerWords is the number of instructions the header emits before _start's
// code (the leading jump plus the six-instruction rng_next body).
//
// Kept as documentation; the assembler resolves _start regardless.
const headerWords = 8

// XorShift32 is the reference PRNG matching rng_next.
func XorShift32(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// Program is one benchmark: assembly source plus its reference model.
type Program struct {
	Name        string
	Description string
	source      string // body following the common header
	// Reference computes the expected RESULT checksum in pure Go.
	Reference func() uint32
	// Long marks the scaled-up variant (roughly 10x the work) used for
	// long-on-duration intermittent experiments; Names/All exclude it.
	Long bool
}

// Source returns the complete assembly source.
func (p *Program) Source() string { return header + p.source }

// Image is an assembled, decoded, and pre-analyzed benchmark ready to load
// into a machine. Text carries the batched-execution analysis alongside the
// instructions; it is computed once here and shared by every run of the
// image.
type Image struct {
	Program  *Program
	Segments []asm.Segment
	Text     *emu.Text
	Entry    uint32
	Expected uint32

	// The initial memory, loaded on first use by FrozenSpace. It lives as
	// long as the image does.
	frozenOnce sync.Once
	frozen     *mem.Space
	frozenErr  error

	// The content hash, computed on first use by Hash.
	hashOnce sync.Once
	hash     string
}

// Hash returns the hex SHA-256 of the image's content: the entry point, the
// expected checksum, and every segment (address, length, then contents) in
// load order. It identifies the program in a run's identity; computed once,
// on first use, and kept on the image so it lives exactly as long as the
// image does.
func (img *Image) Hash() string {
	img.hashOnce.Do(func() {
		h := sha256.New()
		var w [4]byte
		word := func(v uint32) {
			binary.LittleEndian.PutUint32(w[:], v)
			h.Write(w[:])
		}
		word(img.Entry)
		word(img.Expected)
		for _, seg := range img.Segments {
			word(seg.Addr)
			word(uint32(len(seg.Data)))
			h.Write(seg.Data)
		}
		img.hash = hex.EncodeToString(h.Sum(nil))
	})
	return img.hash
}

// FrozenSpace returns the image's initial memory: every segment loaded once,
// on first use, after checking it against the memory map. The space is
// shared by every caller, concurrently too, and must never be written:
// callers Fork it for each machine, shadow and golden run.
func (img *Image) FrozenSpace() (*mem.Space, error) {
	img.frozenOnce.Do(func() { img.frozen, img.frozenErr = img.load() })
	return img.frozen, img.frozenErr
}

// load loads the segments into a fresh space. The image must stay clear of
// the stack band and the checkpoint area of the memory map (package mem).
func (img *Image) load() (*mem.Space, error) {
	space := mem.NewSpace()
	for _, seg := range img.Segments {
		end := seg.Addr + uint32(len(seg.Data))
		if seg.Addr < mem.StackTop && end > mem.StackTop-mem.StackSize {
			return nil, fmt.Errorf("%s: segment [%#x,%#x) overlaps the stack region", img.Program.Name, seg.Addr, end)
		}
		if end > mem.CheckpointBase && seg.Addr < mem.CheckpointBase+0x10000 {
			return nil, fmt.Errorf("%s: segment [%#x,%#x) overlaps the checkpoint area", img.Program.Name, seg.Addr, end)
		}
		space.LoadBytes(seg.Addr, seg.Data)
	}
	return space, nil
}

var (
	buildMu    sync.Mutex
	buildCache = map[string]*Image{}
)

// Build assembles (with caching — images are immutable) and decodes the
// benchmark.
func (p *Program) Build() (*Image, error) {
	buildMu.Lock()
	defer buildMu.Unlock()
	if img, ok := buildCache[p.Name]; ok {
		return img, nil
	}
	prog, err := asm.Assemble(p.Source(), asm.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("program %s: %w", p.Name, err)
	}
	var text *emu.Text
	for _, seg := range prog.Segments {
		if seg.Addr == mem.TextBase {
			text, err = emu.DecodeText(seg.Data)
			if err != nil {
				return nil, fmt.Errorf("program %s: %w", p.Name, err)
			}
		}
	}
	if text == nil {
		return nil, fmt.Errorf("program %s: no text segment", p.Name)
	}
	img := &Image{
		Program:  p,
		Segments: prog.Segments,
		Text:     text,
		Entry:    prog.Entry,
		Expected: p.Reference(),
	}
	buildCache[p.Name] = img
	return img, nil
}

var registry = map[string]*Program{}

func register(p *Program) *Program {
	if _, dup := registry[p.Name]; dup {
		panic("program: duplicate benchmark " + p.Name)
	}
	registry[p.Name] = p
	return p
}

// ByName looks a benchmark up (standard and -long variants).
func ByName(name string) (*Program, bool) {
	p, ok := registry[name]
	return p, ok
}

// Names returns the standard benchmark names (the paper's suite), sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n, p := range registry {
		if !p.Long {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// LongNames returns the scaled-up variants, sorted.
func LongNames() []string {
	var names []string
	for n, p := range registry {
		if p.Long {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// All returns the standard benchmarks in name order.
func All() []*Program {
	var out []*Program
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// FromSource assembles a caller-supplied RV32IM program against the standard
// memory layout (text 0x10000, data 0x20000, stack top 0xA0000, MMIO exit at
// 0xF0000 — see package emu). The source must define its own _start; the
// benchmark header (PRNG, MMIO symbols) is not prepended. The returned
// image has no reference checksum.
func FromSource(name, source string) (*Image, error) {
	prog, err := asm.Assemble(source, asm.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("program %s: %w", name, err)
	}
	var text *emu.Text
	for _, seg := range prog.Segments {
		if seg.Addr == mem.TextBase {
			text, err = emu.DecodeText(seg.Data)
			if err != nil {
				return nil, fmt.Errorf("program %s: %w", name, err)
			}
		}
	}
	if text == nil {
		return nil, fmt.Errorf("program %s: no text segment", name)
	}
	return &Image{
		Program:  &Program{Name: name, Description: "user program"},
		Segments: prog.Segments,
		Text:     text,
		Entry:    prog.Entry,
	}, nil
}

// subst expands {{KEY}} placeholders in assembly templates with integer
// values — how the standard and -long benchmark variants share one source.
func subst(src string, kv map[string]int) string {
	for k, v := range kv {
		src = strings.ReplaceAll(src, "{{"+k+"}}", strconv.Itoa(v))
	}
	if i := strings.Index(src, "{{"); i >= 0 {
		panic("program: unexpanded placeholder near: " + src[i:min(i+24, len(src))])
	}
	return src
}
