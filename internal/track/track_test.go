package track

import (
	"math/rand"
	"runtime/debug"
	"testing"
)

func TestBasicDominance(t *testing.T) {
	tr := New()
	// Write-first location is write-dominated: never a violation.
	if tr.ObserveWrite(0x100, 4) {
		t.Error("first write flagged as violation")
	}
	tr.ObserveRead(0x100, 4)
	if tr.ObserveWrite(0x100, 4) {
		t.Error("write to write-dominated location flagged")
	}
	// Read-first location is read-dominated: write violates.
	tr.ObserveRead(0x200, 4)
	if !tr.ReadDominated(0x200, 4) {
		t.Error("read-first location not read-dominated")
	}
	if !tr.ObserveWrite(0x200, 4) {
		t.Error("WAR not detected")
	}
	// Still read-dominated after the write (first access rules).
	if !tr.ReadDominated(0x200, 4) {
		t.Error("dominance changed by later write")
	}
}

func TestReset(t *testing.T) {
	tr := New()
	tr.ObserveRead(0x300, 4)
	tr.Reset()
	if tr.ReadDominated(0x300, 4) {
		t.Error("dominance survived reset")
	}
	if tr.ObserveWrite(0x300, 4) {
		t.Error("violation after reset")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestByteGranularity(t *testing.T) {
	tr := New()
	tr.ObserveRead(0x400, 1) // byte 0 read-dominated
	if tr.ObserveWrite(0x401, 1) {
		t.Error("write to sibling byte flagged")
	}
	if !tr.ObserveWrite(0x400, 1) {
		t.Error("write to read-dominated byte missed")
	}
	// Word write covering a read-dominated byte is a violation.
	tr2 := New()
	tr2.ObserveRead(0x402, 1)
	if !tr2.ObserveWrite(0x400, 4) {
		t.Error("word write over read-dominated byte missed")
	}
	// Half-word access spanning bytes 2..3.
	tr3 := New()
	tr3.ObserveRead(0x406, 2)
	if tr3.ReadDominated(0x404, 2) {
		t.Error("low half reported read-dominated")
	}
	if !tr3.ReadDominated(0x406, 2) {
		t.Error("high half not read-dominated")
	}
}

// naiveTracker is a transparent per-byte reference model.
type naiveTracker struct {
	seen    map[uint32]bool
	readDom map[uint32]bool
}

func newNaive() *naiveTracker {
	return &naiveTracker{seen: map[uint32]bool{}, readDom: map[uint32]bool{}}
}

func (n *naiveTracker) read(addr uint32, size int) {
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		if !n.seen[a] {
			n.seen[a] = true
			n.readDom[a] = true
		}
	}
}

func (n *naiveTracker) write(addr uint32, size int) bool {
	viol := false
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		if n.readDom[a] {
			viol = true
		}
		n.seen[a] = true
	}
	return viol
}

func (n *naiveTracker) dominated(addr uint32, size int) bool {
	for i := 0; i < size; i++ {
		if n.readDom[addr+uint32(i)] {
			return true
		}
	}
	return false
}

func (n *naiveTracker) clone() *naiveTracker {
	c := newNaive()
	for a, v := range n.seen {
		c.seen[a] = v
	}
	for a, v := range n.readDom {
		c.readDom[a] = v
	}
	return c
}

// Property: the bitmask tracker matches the per-byte reference model over
// random access streams with interleaved resets and clones. Clones must
// stay independent of their source on both sides, so several
// (tracker, model) pairs evolve side by side.
func TestTrackerVersusNaiveModel(t *testing.T) {
	type pair struct {
		tr  *Tracker
		ref *naiveTracker
	}
	r := rand.New(rand.NewSource(23))
	pairs := []*pair{{New(), newNaive()}}
	sizes := []int{1, 2, 4}
	for i := 0; i < 200000; i++ {
		p := pairs[r.Intn(len(pairs))]
		size := sizes[r.Intn(3)]
		addr := uint32(r.Intn(64)) * 2 // overlap-heavy address pool
		switch r.Intn(4) {
		case 0: // spread over pages, the top page included
			addr = uint32(r.Intn(8))<<pageBits | addr
		case 1:
			addr |= 0xFFFF_FF00
		}
		addr &^= uint32(size - 1)
		switch op := r.Intn(100); {
		case op < 10: // occasional interval reset
			p.tr.Reset()
			p.ref = newNaive()
		case op == 10: // fork mid-interval; past four pairs a random one is dropped
			c := &pair{p.tr.Clone(), p.ref.clone()}
			if len(pairs) < 4 {
				pairs = append(pairs, c)
			} else {
				pairs[r.Intn(len(pairs))] = c
			}
		case op < 51:
			p.tr.ObserveRead(addr, size)
			p.ref.read(addr, size)
		default:
			got := p.tr.ObserveWrite(addr, size)
			want := p.ref.write(addr, size)
			if got != want {
				t.Fatalf("step %d: write(%#x,%d) violation=%v, want %v", i, addr, size, got, want)
			}
		}
		if got, want := p.tr.ReadDominated(addr, size), p.ref.dominated(addr, size); got != want {
			t.Fatalf("step %d: dominated(%#x,%d)=%v, want %v", i, addr, size, got, want)
		}
	}

	// The generation stamp wraps every 1<<16 resets. A mark from before the
	// wrap, on a page nothing touches again, must never read as current.
	tr := New()
	tr.ObserveRead(0x4000, 4)
	tr.ObserveWrite(0x8000, 4) // a second page, stamped one generation later
	tr.Reset()
	tr.ObserveRead(0x8000, 4)
	for i := 0; i < 3<<16; i++ {
		tr.Reset()
		if tr.ReadDominated(0x4000, 4) || tr.ReadDominated(0x8000, 4) {
			t.Fatalf("loop reset %d: a mark from before the loop reads as current", i+1)
		}
	}
	if tr.ObserveWrite(0x4000, 4) {
		t.Fatal("write after the wrap reported a WAR from before it")
	}
}

// TestEqualIgnoresGeneration: trackers compare by content, however many
// times each was reset, and a single differing entry on either side makes
// them unequal.
func TestEqualIgnoresGeneration(t *testing.T) {
	a, b := New(), New()
	a.ObserveRead(0x100, 4)
	b.ObserveWrite(0x8000, 4) // a page that goes stale below
	for i := 0; i < 3; i++ {
		b.Reset()
	}
	b.ObserveRead(0x100, 4)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("trackers with one interval's content compare unequal")
	}
	if c := b.Clone(); !c.Equal(a) {
		t.Fatal("a clone compares unequal")
	}
	for _, p := range []struct {
		name string
		f    func(*Tracker)
	}{
		{"read-dominated byte", func(t *Tracker) { t.ObserveRead(0x104, 1) }},
		{"write on the shared page", func(t *Tracker) { t.ObserveWrite(0x108, 1) }},
		{"entry on a stale page", func(t *Tracker) { t.ObserveRead(0x8000, 4) }},
	} {
		c := b.Clone()
		p.f(c)
		if a.Equal(c) || c.Equal(a) {
			t.Errorf("%s: perturbed tracker compares equal", p.name)
		}
	}
}

// TestReleasedPageReadsZero fills every word of a table's pages, releases
// the table and builds another over other addresses: each page the new
// table takes from the free list must read zero but for the word it set.
// The test also checks that pages were in fact recycled, so it cannot pass
// by allocating fresh ones.
func TestReleasedPageReadsZero(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the free lists
	const pages, pageBytes = 32, 1 << pageBits
	var old Words
	freed := make(map[*wordPage]bool)
	for a := uint32(0); a < pages*pageBytes; a += 4 {
		*old.Ref(a) = 0xFF
	}
	for a := uint32(0); a < pages*pageBytes; a += pageBytes {
		freed[old.page(a)] = true
	}
	old.Release()
	if old.Len() != 0 || old.Get(0) != 0 {
		t.Fatal("a released table still holds words")
	}

	var w Words
	reused := 0
	for i := uint32(0); i < pages; i++ {
		base := 0x8_0000 + i*pageBytes
		*w.Ref(base + 8) = 3
		if freed[w.page(base)] {
			reused++
		}
		for a := base; a < base+pageBytes; a += 4 {
			want := uint8(0)
			if a == base+8 {
				want = 3
			}
			if v := w.Get(a); v != want {
				t.Fatalf("recycled page at %#x reads %#x, want %#x", a, v, want)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no released page was recycled")
	}
	if n := w.Len(); n != pages {
		t.Fatalf("Len = %d, want %d", n, pages)
	}
}
