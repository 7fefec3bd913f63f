// Package mem implements the physical memory substrate: a sparse 32-bit byte-
// addressable space, the non-volatile main-memory model with access counting,
// and the machine constants: the access cost model of paper Section 5.2 and
// the memory map.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"nacho/internal/metrics"
	"nacho/internal/sim"
)

// The machine of the paper's evaluation, the one this repository simulates:
// the Section 5.2 cost model and the memory map every program is built for
// (DESIGN.md §4). These constants are its one definition.
const (
	ClockHz   = 50_000_000 // processor frequency
	HitCycles = 2          // data-cache hit / SRAM access latency
	NVMCycles = 6          // NVM word access latency (125 ns rounded down)

	TextBase       = 0x0001_0000 // load address of .text
	DataBase       = 0x0002_0000 // load address of .data
	StackTop       = 0x000A_0000 // initial stack pointer; the stack grows down
	StackSize      = 0x8000      // the band below StackTop the stack may use
	CheckpointBase = 0x000E_0000 // the double-buffered checkpoint area in NVM
)

// CyclesForMillis converts milliseconds of on-time to cycles at ClockHz
// (used for power-failure schedules, Section 6.1.4).
func CyclesForMillis(ms float64) uint64 {
	return uint64(ms * ClockHz / 1000)
}

// The page table. A Space maps every 32-bit address through two levels: a
// root slice of leaves, each leaf covering 1<<leafBits pages (64 KiB). The
// root grows only as far as the highest leaf written, so the program memory
// map (everything below 1 MiB) keeps it to 16 entries, and Fork, which
// copies the root, costs what is in use rather than the address range. A
// space written in its top page carries the full 64 Ki-entry root.
const (
	pageBits  = 10 // 1 KiB pages, the unit a fork copies on first write (BENCH_mem.json §page_size)
	pageSize  = 1 << pageBits
	pageMask  = pageSize - 1
	leafBits  = 6 // 64 pages per leaf: a 512 B leaf copy on first write
	leafSize  = 1 << leafBits
	rootShift = pageBits + leafBits
)

// zeroPage stands in for every page no write has reached. It is never
// written.
var zeroPage [pageSize]byte

// page is one refcounted block of memory. refs counts the leaves that
// reference it; a leaf may write the page in place only while refs == 1
// and must copy it otherwise. The count is atomic because forked Spaces run
// on separate goroutines: their only shared state is pages and leaves with
// refs > 1, which are immutable until the release/acquire pair of the
// copier's refs.Add(-1) and the next writer's refs.Load() hands exclusive
// ownership over.
type page struct {
	refs atomic.Int32
	data [pageSize]byte
}

// leaf is one refcounted block of page pointers, shared between Spaces on
// the same terms as a page: refs counts the Spaces whose root holds it.
type leaf struct {
	refs  atomic.Int32
	pages [leafSize]*page
}

// The free lists. A leaf or page whose count reaches zero, when a space
// copies it (writable) or releases it (Release), goes back here, and
// writable draws from here before it allocates. A count reaches zero only
// once no space or leaf references the block, so no live space can see it
// again. The frozen image of a program never releases, so no block it holds
// reaches zero. A pooled leaf is empty; a pooled page keeps its stale bytes.
var (
	freeLeaves = sync.Pool{New: func() any { return new(leaf) }}
	freePages  = sync.Pool{New: func() any { return new(page) }}
)

// newLeaf returns an empty leaf with one reference.
func newLeaf() *leaf {
	l := freeLeaves.Get().(*leaf)
	l.refs.Store(1)
	return l
}

// newPage returns a page with one reference and unspecified contents.
func newPage() *page {
	p := freePages.Get().(*page)
	p.refs.Store(1)
	return p
}

// unref drops one reference to the leaf. The last one drops the leaf's
// references to its pages and puts the leaf on the free list.
func (l *leaf) unref() {
	if l.refs.Add(-1) != 0 {
		return
	}
	for j, p := range l.pages {
		if p != nil {
			p.unref()
			l.pages[j] = nil
		}
	}
	freeLeaves.Put(l)
}

// unref drops one reference to the page. The last one puts it on the free
// list.
func (p *page) unref() {
	if p.refs.Add(-1) == 0 {
		freePages.Put(p)
	}
}

// bytes returns the page's storage, or the zero page for a nil page.
func (p *page) bytes() *[pageSize]byte {
	if p == nil {
		return &zeroPage
	}
	return &p.data
}

// at returns the leaf's j-th page; a nil leaf holds no pages.
func (l *leaf) at(j uint32) *page {
	if l == nil {
		return nil
	}
	return l.pages[j]
}

// Space is a sparse 32-bit byte-addressable memory. The zero value is an
// empty space; reading memory that was never written yields zeros. Fork
// creates copy-on-write descendants that share leaves and pages until
// written.
type Space struct {
	root []*leaf // indexed by addr >> rootShift
}

// NewSpace returns an empty memory space.
func NewSpace() *Space { return &Space{} }

// leafAt returns the i-th leaf of the root, nil past its end.
func (s *Space) leafAt(i uint32) *leaf {
	if i < uint32(len(s.root)) {
		return s.root[i]
	}
	return nil
}

// page returns the page holding addr, or nil when no write has reached it.
func (s *Space) page(addr uint32) *page {
	return s.leafAt(addr >> rootShift).at(addr >> pageBits & (leafSize - 1))
}

// writable returns an exclusively owned page holding addr, materializing or
// copying its leaf and then the page itself. Each copy completes before the
// shared original's refcount is released, so a sibling that subsequently
// observes refs == 1 may write the original in place without racing the
// copy, and an original whose count the release takes to zero is on the
// free list only once every copy of it is complete.
func (s *Space) writable(addr uint32) *page {
	i := addr >> rootShift
	if i >= uint32(len(s.root)) {
		s.root = append(s.root, make([]*leaf, int(i)+1-len(s.root))...)
	}
	l := s.root[i]
	switch {
	case l == nil:
		l = newLeaf()
		s.root[i] = l
	case l.refs.Load() > 1:
		nl := newLeaf()
		for j, p := range l.pages {
			if p != nil {
				p.refs.Add(1)
				nl.pages[j] = p
			}
		}
		l.unref()
		s.root[i] = nl
		l = nl
	}
	j := addr >> pageBits & (leafSize - 1)
	p := l.pages[j]
	switch {
	case p == nil:
		// The page stands in for the zero page, so a recycled one is
		// cleared.
		p = newPage()
		clear(p.data[:])
		l.pages[j] = p
	case p.refs.Load() > 1:
		np := newPage()
		np.data = p.data
		p.unref()
		l.pages[j] = np
		p = np
	}
	return p
}

// Fork returns a copy-on-write descendant sharing every current leaf (and
// so every page) with the parent. Either side's next write to a shared leaf
// or page copies it first, so the two spaces diverge independently. Fork
// writes nothing of the parent but the atomic refcounts, so many goroutines
// may fork one quiescent parent at once. A fork that is done with should be
// released (Release): until then the parent pays one copy for every shared
// block it writes, and an abandoned fork's blocks go to the garbage
// collector rather than back to the free lists.
func (s *Space) Fork() *Space {
	root := make([]*leaf, len(s.root))
	for i, l := range s.root {
		if l != nil {
			l.refs.Add(1)
			root[i] = l
		}
	}
	return &Space{root: root}
}

// Release gives the space's leaves and pages back: it drops its reference
// to each leaf, and every leaf or page no other space still holds goes to
// the free list, where the next copy or first write takes it. A sharer
// whose count falls back to 1 owns its block again and writes it in place.
// The space reads as empty afterwards; its owner must not use it again, and
// no space may fork it concurrently.
func (s *Space) Release() {
	for _, l := range s.root {
		if l != nil {
			l.unref()
		}
	}
	s.root = nil
}

// Read returns size bytes (1, 2 or 4) at addr, little-endian, zero-extended.
// An access inside one page is one table lookup; one that crosses a page
// boundary (only a misaligned one can) is assembled byte by byte.
func (s *Space) Read(addr uint32, size int) uint32 {
	o := addr & pageMask
	if int(o)+size <= pageSize {
		d := s.page(addr).bytes()
		switch size {
		case 4:
			return binary.LittleEndian.Uint32(d[o:])
		case 2:
			return uint32(binary.LittleEndian.Uint16(d[o:]))
		case 1:
			return uint32(d[o])
		}
	}
	var v uint32
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		v |= uint32(s.page(a).bytes()[a&pageMask]) << (8 * i)
	}
	return v
}

// Write stores the low size bytes (1, 2 or 4) of val at addr, little-endian.
func (s *Space) Write(addr uint32, size int, val uint32) {
	o := addr & pageMask
	if int(o)+size <= pageSize {
		switch size {
		case 4:
			binary.LittleEndian.PutUint32(s.writable(addr).data[o:], val)
			return
		case 2:
			binary.LittleEndian.PutUint16(s.writable(addr).data[o:], uint16(val))
			return
		case 1:
			s.writable(addr).data[o] = byte(val)
			return
		}
	}
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		s.writable(a).data[a&pageMask] = byte(val >> (8 * i))
	}
}

// LoadBytes copies data into the space starting at addr, a page at a time
// (program loading). Past the top page the address wraps to 0.
func (s *Space) LoadBytes(addr uint32, data []byte) {
	for len(data) > 0 {
		n := copy(s.writable(addr).data[addr&pageMask:], data)
		data = data[n:]
		addr += uint32(n)
	}
}

// ReadBytes fills dst with the bytes starting at addr, a page at a time.
func (s *Space) ReadBytes(addr uint32, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, s.page(addr).bytes()[addr&pageMask:])
		dst = dst[n:]
		addr += uint32(n)
	}
}

// FirstDiff compares the bytes starting at addr with want, a page at a
// time, and returns the offset of the first byte that differs, or -1 when
// all match.
func (s *Space) FirstDiff(addr uint32, want []byte) int {
	for off := 0; off < len(want); {
		o := addr & pageMask
		n := min(pageSize-int(o), len(want)-off)
		if i := firstDiff(s.page(addr).bytes()[o:int(o)+n], want[off:off+n]); i >= 0 {
			return off + i
		}
		off += n
		addr += uint32(n)
	}
	return -1
}

// firstDiff returns the first index at which two equal-length slices
// differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// Equal reports whether two spaces hold identical contents, treating
// never-written pages as zero-filled, and returns the lowest differing
// address if not. Leaves and pages the two spaces share are skipped
// unread.
func (s *Space) Equal(o *Space) (uint32, bool) {
	for i := range uint32(max(len(s.root), len(o.root))) {
		a, b := s.leafAt(i), o.leafAt(i)
		if a == b {
			continue
		}
		for j := range uint32(leafSize) {
			p, q := a.at(j), b.at(j)
			if p == q {
				continue
			}
			if k := firstDiff(p.bytes()[:], q.bytes()[:]); k >= 0 {
				return i<<rootShift | j<<pageBits | uint32(k), false
			}
		}
	}
	return 0, true
}

// NVM models the non-volatile main memory: a Space whose every access is
// charged on the simulation clock and tallied in the run counters. Contents
// survive power failures by construction (nothing clears them).
type NVM struct {
	space *Space
	clk   sim.Clock
	c     *metrics.Counters
	probe sim.Probe
}

// NewNVM wraps a space with the paper's NVM latency and accounting. The
// clock, counters and probe are attached later via Attach (systems are
// constructed before the emulator exists).
func NewNVM(space *Space) *NVM {
	return &NVM{space: space}
}

// Attach binds the NVM to a simulation clock and counter set, and p (nil
// for none) as the observer of charged NVM traffic.
func (n *NVM) Attach(clk sim.Clock, c *metrics.Counters, p sim.Probe) {
	n.clk = clk
	n.c = c
	n.probe = p
}

// Now is the current simulation cycle, or 0 before Attach (used by owners
// that need a timestamp but hold no clock of their own).
func (n *NVM) Now() uint64 {
	if n.clk == nil {
		return 0
	}
	return n.clk.Now()
}

// Read performs a charged NVM read of size bytes.
func (n *NVM) Read(addr uint32, size int) uint32 {
	n.c.NVMReads++
	n.c.NVMReadBytes += uint64(size)
	n.clk.Advance(NVMCycles)
	if n.probe != nil {
		n.probe.OnNVM(sim.NVMEvent{Cycle: n.clk.Now(), Addr: addr, Bytes: size})
	}
	return n.space.Read(addr, size)
}

// Write performs a charged NVM write of size bytes.
func (n *NVM) Write(addr uint32, size int, val uint32) {
	n.c.NVMWrites++
	n.c.NVMWriteBytes += uint64(size)
	n.clk.Advance(NVMCycles)
	if n.probe != nil {
		n.probe.OnNVM(sim.NVMEvent{Cycle: n.clk.Now(), Addr: addr, Bytes: size, Write: true})
	}
	n.space.Write(addr, size, val)
}

// Fork returns an NVM over a copy-on-write fork of the space, with no clock,
// counters, or probe: the forking system attaches it to the forked
// machine's clock and counter set.
func (n *NVM) Fork() *NVM {
	return &NVM{space: n.space.Fork()}
}

// Release gives the NVM's space back (Space.Release) once its owner is done
// with it.
func (n *NVM) Release() { n.space.Release() }

// Equal reports whether two NVMs hold identical contents (Space.Equal:
// shared pages are skipped unread).
func (n *NVM) Equal(o *NVM) bool {
	_, eq := n.space.Equal(o.space)
	return eq
}

// ReadRaw reads without charging cycles or counters (loader/debug path).
func (n *NVM) ReadRaw(addr uint32, size int) uint32 { return n.space.Read(addr, size) }

// WriteRaw writes without charging cycles or counters (loader/debug path).
func (n *NVM) WriteRaw(addr uint32, size int, val uint32) { n.space.Write(addr, size, val) }

// ReadBytes reads without charging cycles or counters, a page at a time
// (final-state comparison).
func (n *NVM) ReadBytes(addr uint32, dst []byte) { n.space.ReadBytes(addr, dst) }

// FirstDiff compares without charging cycles or counters, a page at a time
// (final-state comparison).
func (n *NVM) FirstDiff(addr uint32, want []byte) int { return n.space.FirstDiff(addr, want) }

// Space exposes the underlying space (verifier comparisons).
func (n *NVM) Space() *Space { return n.space }

// AlignmentError reports a misaligned or invalid-size access; the emulator
// treats it as a program bug and aborts the run.
type AlignmentError struct {
	Addr uint32
	Size int
}

// Error implements the error interface.
func (e *AlignmentError) Error() string {
	return fmt.Sprintf("mem: misaligned %d-byte access at 0x%08x", e.Size, e.Addr)
}

// CheckAligned validates natural alignment for a 1/2/4-byte access.
func CheckAligned(addr uint32, size int) error {
	switch size {
	case 1:
		return nil
	case 2, 4:
		if addr%uint32(size) == 0 {
			return nil
		}
	}
	return &AlignmentError{Addr: addr, Size: size}
}

// ReadRaw makes Space satisfy sim.MemReaderWriter (volatile baseline).
func (s *Space) ReadRaw(addr uint32, size int) uint32 { return s.Read(addr, size) }

// WriteRaw makes Space satisfy sim.MemReaderWriter (volatile baseline).
func (s *Space) WriteRaw(addr uint32, size int, val uint32) { s.Write(addr, size, val) }

// WriteAsync performs an NVM write that is counted but not charged on the
// clock: ReplayCache's non-blocking cache issues write-backs through a
// background queue whose timing (port occupancy, stalls) the caller models
// explicitly (paper Section 6.1.2: "asynchronously write cache lines back to
// NVM").
func (n *NVM) WriteAsync(addr uint32, size int, val uint32) {
	n.c.NVMWrites++
	n.c.NVMWriteBytes += uint64(size)
	if n.probe != nil {
		n.probe.OnNVM(sim.NVMEvent{Cycle: n.Now(), Addr: addr, Bytes: size, Write: true})
	}
	n.space.Write(addr, size, val)
}
