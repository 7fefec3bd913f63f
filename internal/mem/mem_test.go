package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"

	"nacho/internal/metrics"
	"nacho/internal/sim"
)

func TestSpaceReadWriteSizes(t *testing.T) {
	s := NewSpace()
	s.Write(0x100, 4, 0xAABBCCDD)
	cases := []struct {
		addr uint32
		size int
		want uint32
	}{
		{0x100, 4, 0xAABBCCDD},
		{0x100, 1, 0xDD}, // little-endian
		{0x101, 1, 0xCC},
		{0x102, 1, 0xBB},
		{0x103, 1, 0xAA},
		{0x100, 2, 0xCCDD},
		{0x102, 2, 0xAABB},
	}
	for _, c := range cases {
		if got := s.Read(c.addr, c.size); got != c.want {
			t.Errorf("Read(%#x, %d) = %#x, want %#x", c.addr, c.size, got, c.want)
		}
	}
	// Sub-word write merges.
	s.Write(0x101, 1, 0x11)
	if got := s.Read(0x100, 4); got != 0xAABB11DD {
		t.Errorf("after byte write, word = %#x, want 0xAABB11DD", got)
	}
	s.Write(0x102, 2, 0x2233)
	if got := s.Read(0x100, 4); got != 0x223311DD {
		t.Errorf("after half write, word = %#x, want 0x223311DD", got)
	}
}

func TestSpaceZeroFill(t *testing.T) {
	s := NewSpace()
	if got := s.Read(0xFFFF_F000, 4); got != 0 {
		t.Errorf("untouched memory = %#x, want 0", got)
	}
}

func TestSpacePageBoundary(t *testing.T) {
	s := NewSpace()
	addr := uint32(pageSize - 2)
	s.Write(addr, 4, 0x11223344) // crosses page 0 -> 1
	if got := s.Read(addr, 4); got != 0x11223344 {
		t.Errorf("cross-page read = %#x, want 0x11223344", got)
	}
}

// Property: Space behaves like a flat map of bytes under random accesses:
// word, half and byte reads and writes, LoadBytes spans that cross page
// boundaries (and wrap past the top page to 0), fork chains with abandoned
// forks, and the page-wise ReadBytes, FirstDiff and Equal — all checked
// against a byte map per space, at low addresses and in the top page.
func TestSpaceVersusMapModel(t *testing.T) {
	type pair struct {
		s     *Space
		model map[uint32]byte
	}
	get := func(m map[uint32]byte, a uint32) byte { return m[a] }
	// lowestDiff is the model's Equal: the lowest address where two byte
	// maps disagree, missing bytes reading as zero.
	lowestDiff := func(x, y map[uint32]byte) (uint32, bool) {
		best, found := uint32(0), false
		for _, m := range []map[uint32]byte{x, y} {
			for a := range m {
				if x[a] != y[a] && (!found || a < best) {
					best, found = a, true
				}
			}
		}
		return best, !found
	}
	r := rand.New(rand.NewSource(7))
	addr := func(size int) uint32 {
		var a uint32
		switch r.Intn(4) {
		case 0: // the top page, 0xFFFFF000-0xFFFFFFFF
			a = 0xFFFF_F000 | uint32(r.Intn(pageSize))
		case 1: // either side of a page boundary
			a = uint32(r.Intn(8))<<pageBits + uint32(r.Intn(16)) - 8
		default:
			a = uint32(r.Intn(8 * pageSize))
		}
		return a &^ uint32(size-1)
	}
	spaces := []*pair{{NewSpace(), map[uint32]byte{}}}
	sizes := []int{1, 2, 4}
	for i := 0; i < 50000; i++ {
		p := spaces[r.Intn(len(spaces))]
		switch op := r.Intn(1000); {
		case op < 450:
			size := sizes[r.Intn(3)]
			a, v := addr(size), r.Uint32()
			p.s.Write(a, size, v)
			for j := 0; j < size; j++ {
				p.model[a+uint32(j)] = byte(v >> (8 * j))
			}
		case op < 900:
			size := sizes[r.Intn(3)]
			a := addr(size)
			var want uint32
			for j := 0; j < size; j++ {
				want |= uint32(get(p.model, a+uint32(j))) << (8 * j)
			}
			if got := p.s.Read(a, size); got != want {
				t.Fatalf("step %d: Read(%#x, %d) = %#x, want %#x", i, a, size, got, want)
			}
		case op < 940: // LoadBytes across page boundaries
			a := addr(1)
			data := make([]byte, r.Intn(pageSize/2))
			r.Read(data)
			p.s.LoadBytes(a, data)
			for j, b := range data {
				p.model[a+uint32(j)] = b
			}
		case op < 995: // page-wise reads and compares of a span
			a := addr(1)
			want := make([]byte, r.Intn(pageSize/2))
			for j := range want {
				want[j] = get(p.model, a+uint32(j))
			}
			got := make([]byte, len(want))
			p.s.ReadBytes(a, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadBytes(%#x, %d) differs from the model", i, a, len(want))
			}
			wantDiff := -1
			if len(want) > 0 && r.Intn(2) == 0 {
				wantDiff = r.Intn(len(want))
				want[wantDiff]++
			}
			if d := p.s.FirstDiff(a, want); d != wantDiff {
				t.Fatalf("step %d: FirstDiff(%#x) = %d, want %d", i, a, d, wantDiff)
			}
		case op < 998: // fork; past six spaces a random one is abandoned
			f := &pair{p.s.Fork(), make(map[uint32]byte, len(p.model))}
			for a, b := range p.model {
				f.model[a] = b
			}
			if len(spaces) < 6 {
				spaces = append(spaces, f)
			} else {
				spaces[r.Intn(len(spaces))] = f
			}
		default: // Equal against another space
			q := spaces[r.Intn(len(spaces))]
			gotAddr, gotOK := p.s.Equal(q.s)
			wantAddr, wantOK := lowestDiff(p.model, q.model)
			if gotOK != wantOK || gotAddr != wantAddr {
				t.Fatalf("step %d: Equal = (%#x, %v), want (%#x, %v)", i, gotAddr, gotOK, wantAddr, wantOK)
			}
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	s := NewSpace()
	s.Write(0x200, 4, 0xDEADBEEF)
	c := s.Fork()
	if addr, ok := s.Equal(c); !ok {
		t.Fatalf("fork differs at %#x", addr)
	}
	c.Write(0x204, 1, 1)
	addr, ok := s.Equal(c)
	if ok {
		t.Fatal("mutated clone reported equal")
	}
	if addr != 0x204 {
		t.Errorf("difference reported at %#x, want 0x204", addr)
	}
	// Asymmetric pages: write in one space only.
	d := NewSpace()
	d.Write(0x9000_0000, 1, 5)
	if _, ok := NewSpace().Equal(d); ok {
		t.Error("spaces with differing pages reported equal")
	}
	// A touched-but-zero page still equals an untouched space.
	e := NewSpace()
	e.Write(0x9000_0000, 1, 0)
	if _, ok := NewSpace().Equal(e); !ok {
		t.Error("zero-filled page should equal untouched space")
	}
}

func TestNVMAccountingAndLatency(t *testing.T) {
	clk := &sim.TestClock{}
	var c metrics.Counters
	n := NewNVM(NewSpace())
	n.Attach(clk, &c, nil)

	n.Write(0x40, 4, 123)
	if clk.Cycle != 6 {
		t.Errorf("write latency = %d cycles, want 6", clk.Cycle)
	}
	if got := n.Read(0x40, 4); got != 123 {
		t.Errorf("read back %d, want 123", got)
	}
	if clk.Cycle != 12 {
		t.Errorf("after read, clock = %d, want 12", clk.Cycle)
	}
	n.Write(0x50, 1, 0xFF)
	if c.NVMWrites != 2 || c.NVMWriteBytes != 5 || c.NVMReads != 1 || c.NVMReadBytes != 4 {
		t.Errorf("counters = %+v", c)
	}
}

func TestNVMAsyncWriteUncharged(t *testing.T) {
	clk := &sim.TestClock{}
	var c metrics.Counters
	n := NewNVM(NewSpace())
	n.Attach(clk, &c, nil)
	n.WriteAsync(0x80, 4, 7)
	if clk.Cycle != 0 {
		t.Errorf("async write charged %d cycles, want 0", clk.Cycle)
	}
	if c.NVMWrites != 1 || c.NVMWriteBytes != 4 {
		t.Errorf("async write not counted: %+v", c)
	}
	if n.ReadRaw(0x80, 4) != 7 {
		t.Error("async write value not visible")
	}
}

func TestNVMRawUncounted(t *testing.T) {
	clk := &sim.TestClock{}
	var c metrics.Counters
	n := NewNVM(NewSpace())
	n.Attach(clk, &c, nil)
	n.WriteRaw(0x10, 4, 9)
	if n.ReadRaw(0x10, 4) != 9 {
		t.Error("raw round-trip failed")
	}
	if clk.Cycle != 0 || c.NVMWrites != 0 || c.NVMReads != 0 {
		t.Error("raw access charged or counted")
	}
}

func TestCheckAligned(t *testing.T) {
	cases := []struct {
		addr uint32
		size int
		ok   bool
	}{
		{0, 1, true}, {1, 1, true}, {3, 1, true},
		{0, 2, true}, {1, 2, false}, {2, 2, true},
		{0, 4, true}, {2, 4, false}, {4, 4, true},
		{0, 3, false}, {0, 8, false},
	}
	for _, c := range cases {
		err := CheckAligned(c.addr, c.size)
		if (err == nil) != c.ok {
			t.Errorf("CheckAligned(%#x, %d) err=%v, want ok=%v", c.addr, c.size, err, c.ok)
		}
	}
	var ae *AlignmentError
	if err := CheckAligned(2, 4); err != nil {
		ae = err.(*AlignmentError)
		if ae.Addr != 2 || ae.Size != 4 {
			t.Errorf("alignment error fields: %+v", ae)
		}
		if ae.Error() == "" {
			t.Error("empty error string")
		}
	}
}

// TestForkCopyOnWrite pins the COW discipline: forks see the parent's
// contents, writes on either side are invisible to the other, and page
// refcounts return to sole ownership once every sharer has diverged.
func TestForkCopyOnWrite(t *testing.T) {
	s := NewSpace()
	s.Write(0x1000, 4, 0xAABBCCDD)
	s.Write(0x5000, 4, 0x11223344)

	f := s.Fork()
	if v := f.Read(0x1000, 4); v != 0xAABBCCDD {
		t.Fatalf("fork read 0x%08x, want parent contents", v)
	}

	// Parent writes after the fork must not leak into the fork, and vice
	// versa — in both orders, on both shared and fresh pages.
	s.Write(0x1000, 4, 0xDEADBEEF)
	if v := f.Read(0x1000, 4); v != 0xAABBCCDD {
		t.Fatalf("parent write leaked into fork: 0x%08x", v)
	}
	f.Write(0x5000, 4, 0x99999999)
	if v := s.Read(0x5000, 4); v != 0x11223344 {
		t.Fatalf("fork write leaked into parent: 0x%08x", v)
	}
	f.Write(0x9000, 1, 0x42)
	if v := s.Read(0x9000, 1); v != 0 {
		t.Fatalf("fork write to fresh page leaked into parent: 0x%02x", v)
	}

	// Untouched pages remain shared; every touched page is exclusively owned
	// again by whoever kept it.
	for _, sp := range []*Space{s, f} {
		for i, l := range sp.root {
			if l == nil {
				continue
			}
			if refs := l.refs.Load(); refs != 1 {
				t.Fatalf("leaf %d refcount %d after both sides wrote it, want 1", i, refs)
			}
			for j, p := range l.pages {
				if p != nil && p.refs.Load() < 1 {
					t.Fatalf("page %d/%d refcount %d < 1", i, j, p.refs.Load())
				}
			}
		}
	}
	if s.page(0x1000) == f.page(0x1000) {
		t.Fatal("diverged page still shared")
	}
	if s.page(0x9000) != nil {
		t.Fatal("a read of an unwritten page materialized it")
	}
}

// TestForkChainAndAbandon covers grandchild forks and abandoned forks: a
// chain of forks all alias one page, and dropping an intermediate fork
// without releasing it must not disturb survivors (the garbage collector
// reclaims it).
func TestForkChainAndAbandon(t *testing.T) {
	a := NewSpace()
	a.Write(0x2000, 4, 7)
	b := a.Fork()
	c := b.Fork()
	b = nil // abandon the middle fork
	_ = b
	c.Write(0x2000, 4, 8)
	if v := a.Read(0x2000, 4); v != 7 {
		t.Fatalf("grandchild write reached root: %d", v)
	}
	if v := c.Read(0x2000, 4); v != 8 {
		t.Fatalf("grandchild lost its own write: %d", v)
	}
}

// pattern is the word the recycling tests write at addr in space number i.
func pattern(i int, addr uint32) uint32 { return addr*2654435761 ^ uint32(i)<<28 | 1 }

// checkPattern fails t unless every word of [lo, hi) in s holds pattern(i).
func checkPattern(t *testing.T, name string, s *Space, i int, lo, hi uint32) {
	t.Helper()
	for a := lo; a < hi; a += 4 {
		if v, want := s.Read(a, 4), pattern(i, a); v != want {
			t.Fatalf("%s at %#x: %#x, want %#x", name, a, v, want)
		}
	}
}

// TestReleaseKeepsSharers releases a fork that copied some of the leaves
// and pages it shared with its parent and a sibling and wrote pages of its
// own, then lets a fresh space take what the release freed. The parent and
// the sibling must read their bytes unchanged: a block that another space
// still references never reaches the free list.
func TestReleaseKeepsSharers(t *testing.T) {
	// A collection empties the free lists.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const span = 2 * leafSize * pageSize // two leaves
	parent := NewSpace()
	for a := uint32(0); a < span; a += 4 {
		parent.Write(a, 4, pattern(0, a))
	}
	sibling := parent.Fork()
	f := parent.Fork()
	for a := uint32(0); a < span; a += 3 * pageSize {
		f.Write(a, 4, 7) // copies the leaf, then one page in three
	}
	f.Write(span+8, 4, 7) // a page of its own
	f.Release()
	if v := f.Read(0, 4); v != 0 {
		t.Fatalf("a released space reads %#x, want the empty space's 0", v)
	}

	fresh := NewSpace()
	for a := uint32(0); a < 2*span; a += 4 {
		fresh.Write(0x100_0000+a, 4, pattern(1, a))
	}
	checkPattern(t, "parent", parent, 0, 0, span)
	checkPattern(t, "sibling", sibling, 0, 0, span)
	for a := uint32(0); a < 2*span; a += 4 {
		if v := fresh.Read(0x100_0000+a, 4); v != pattern(1, a) {
			t.Fatalf("fresh space at %#x: %#x", a, v)
		}
	}
	if v := parent.Read(span+8, 4); v != 0 {
		t.Fatalf("the released fork's own page leaked into the parent: %#x", v)
	}
}

// TestRecycledPageReadsZero releases a space whose pages are full of ones
// and then writes one byte into each of as many never-written pages of
// another: every recycled page stands in for the zero page, so all its
// other bytes must read zero. The test also checks that pages were in fact
// recycled, so it cannot pass by allocating fresh ones.
func TestRecycledPageReadsZero(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the free lists
	const pages = 64
	old := NewSpace()
	freed := make(map[*page]bool)
	for i := uint32(0); i < pages; i++ {
		old.LoadBytes(i*pageSize, bytes.Repeat([]byte{0xFF}, pageSize))
		freed[old.page(i*pageSize)] = true
	}
	old.Release()

	s := NewSpace()
	reused := 0
	for i := uint32(0); i < pages; i++ {
		base := 0x40_0000 + i*pageSize
		s.Write(base+8, 1, 0x5A)
		if freed[s.page(base)] {
			reused++
		}
		for a := base; a < base+pageSize; a += 4 {
			want := uint32(0)
			if a == base+8 {
				want = 0x5A
			}
			if v := s.Read(a, 4); v != want {
				t.Fatalf("recycled page at %#x reads %#x, want %#x", a, v, want)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no released page was recycled")
	}
}

// TestForkConcurrentRelease forks one quiescent parent from several
// goroutines at once, as the harness's and the fuzzer's workers fork one
// frozen image: each writes half of the shared pages and one page of its
// own, checks its bytes, the parent's it still shares included, and
// releases, round after round. Blocks freed on one goroutine are taken from
// the free lists by another while the parent and a sibling fork still share
// the originals. Under -race this pins the release protocol: a block
// reaches the free list only when its count reaches zero, on the copy path
// or the release path, and only after every copy of it is complete.
func TestForkConcurrentRelease(t *testing.T) {
	const shared, written = 8 * pageSize, 4 * pageSize
	parent := NewSpace()
	for a := uint32(0); a < shared; a += 4 {
		parent.Write(a, 4, pattern(0, a))
	}
	sibling := parent.Fork()
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := shared + uint32(w)*pageSize // a page no other space writes
			for r := 0; r < rounds; r++ {
				f := parent.Fork()
				for a := uint32(0); a < written; a += 4 {
					f.Write(a, 4, pattern(w, a))
				}
				f.Write(own, 4, pattern(w, own))
				for a := uint32(0); a < shared; a += 4 {
					want := pattern(0, a)
					if a < written {
						want = pattern(w, a)
					}
					if v := f.Read(a, 4); v != want {
						errs <- fmt.Sprintf("worker %d round %d at %#x: %#x, want %#x", w, r, a, v, want)
						return
					}
				}
				if v := f.Read(own, 4); v != pattern(w, own) {
					errs <- fmt.Sprintf("worker %d round %d lost its own page: %#x", w, r, v)
					return
				}
				f.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	checkPattern(t, "parent", parent, 0, 0, shared)
	checkPattern(t, "sibling", sibling, 0, 0, shared)
	for w := 1; w <= workers; w++ {
		if v := parent.Read(shared+uint32(w)*pageSize, 4); v != 0 {
			t.Fatalf("a fork's own page leaked into the parent: %#x", v)
		}
	}
}

// TestForkConcurrentWriters drives forks of one parent, and the parent
// itself, on separate goroutines writing shared leaves and pages, and checks
// isolation. Whichever space ends up sole owner of a shared block writes it
// in place while the others may still be copying it, so this validates the
// copy-then-decrement order argued in the page doc comment: under -race for
// pages (nine writers on the same pages), and by the values read back for
// leaves (two writers in lockstep across many leaves, one on each leaf's
// first page and one on its last, so one copies the leaf while the other,
// once sole owner, writes a page the copy has yet to share).
func TestForkConcurrentWriters(t *testing.T) {
	const span = 4 * pageSize
	s := NewSpace()
	for a := uint32(0); a < span; a += 4 {
		s.Write(a, 4, a)
	}
	spaces := []*Space{s}
	for i := 0; i < 8; i++ {
		spaces = append(spaces, s.Fork())
	}
	var wg sync.WaitGroup
	for i, f := range spaces {
		wg.Add(1)
		go func(i int, f *Space) {
			defer wg.Done()
			for a := uint32(0); a < span; a += 4 {
				f.Write(a, 4, a^uint32(i)<<24)
			}
		}(i, f)
	}
	wg.Wait()
	for i, f := range spaces {
		for a := uint32(0); a < span; a += 4 {
			if v := f.Read(a, 4); v != a^uint32(i)<<24 {
				t.Fatalf("space %d (0 is the parent) at 0x%x: %#x, want %#x", i, a, v, a^uint32(i)<<24)
			}
		}
	}

	const leaves = 1024
	first := func(l uint32) uint32 { return l << rootShift }
	last := func(l uint32) uint32 { return l<<rootShift | (leafSize-1)<<pageBits }
	p := NewSpace()
	for l := uint32(0); l < leaves; l++ {
		p.Write(first(l), 4, 1)
		p.Write(last(l), 4, 2)
	}
	f := p.Fork()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for l := uint32(0); l < leaves; l++ {
			p.Write(first(l), 4, 10)
		}
	}()
	go func() {
		defer wg.Done()
		for l := uint32(0); l < leaves; l++ {
			f.Write(last(l), 4, 20)
		}
	}()
	wg.Wait()
	for l := uint32(0); l < leaves; l++ {
		if p.Read(last(l), 4) != 2 || f.Read(first(l), 4) != 1 {
			t.Fatalf("leaf %d: a write leaked across the fork", l)
		}
	}
}

// TestForkConcurrentForkers takes many forks of one quiescent parent from
// separate goroutines at once — the snapshot explorer's fan-out pattern.
// Under -race this pins Fork as read-only on the parent (beyond the atomic
// refcounts). The parent writes first so it owns its pages at fork time,
// then writes again after the forks: the page is shared now, and the
// post-fork write must copy it rather than leak through (the refcount check
// in writable).
func TestForkConcurrentForkers(t *testing.T) {
	s := NewSpace()
	for a := uint32(0); a < 2*pageSize; a += 4 {
		s.Write(a, 4, a^5)
	}
	const n = 8
	var wg sync.WaitGroup
	forks := make([]*Space, n)
	for i := range forks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := s.Fork()
			f.Write(0, 4, uint32(i)+77)
			forks[i] = f
		}(i)
	}
	wg.Wait()
	s.Write(0, 4, 999) // the page was owned before the forks, shared after
	for i, f := range forks {
		if v := f.Read(0, 4); v != uint32(i)+77 {
			t.Fatalf("fork %d lost its write: %d", i, v)
		}
		if v := f.Read(4, 4); v != 4^5 {
			t.Fatalf("fork %d shared page corrupted: %d", i, v)
		}
	}
	if v := s.Read(0, 4); v != 999 {
		t.Fatalf("parent lost its post-fork write: %d", v)
	}
}

// Property: a fork equals its parent until either writes.
func TestForkEqualQuick(t *testing.T) {
	f := func(writes []uint32) bool {
		s := NewSpace()
		for _, w := range writes {
			s.Write(w&0xFFFF, 1, w>>16)
		}
		_, ok := s.Equal(s.Fork())
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
