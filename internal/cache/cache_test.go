package cache

import (
	"math/rand"
	"testing"
)

func TestGeometryValidation(t *testing.T) {
	valid := []struct{ size, ways int }{
		{256, 2}, {512, 2}, {1024, 2}, {256, 4}, {512, 4}, {1024, 4}, {8, 2}, {4, 1},
	}
	for _, g := range valid {
		c, err := New(g.size, g.ways)
		if err != nil {
			t.Errorf("New(%d, %d): %v", g.size, g.ways, err)
			continue
		}
		if c.SizeBytes() != g.size || c.Ways() != g.ways {
			t.Errorf("geometry mismatch: %d/%d", c.SizeBytes(), c.Ways())
		}
		if c.NumLines() != g.size/LineSize {
			t.Errorf("NumLines = %d, want %d", c.NumLines(), g.size/LineSize)
		}
	}
	invalid := []struct{ size, ways int }{
		{0, 2}, {512, 0}, {-8, 2}, {512, 3}, {100, 2}, {24, 2}, {6, 2},
	}
	for _, g := range invalid {
		if _, err := New(g.size, g.ways); err == nil {
			t.Errorf("New(%d, %d) succeeded, want error", g.size, g.ways)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad geometry did not panic")
		}
	}()
	MustNew(100, 3)
}

func TestSetIndexMapping(t *testing.T) {
	c := MustNew(64, 2) // 8 sets
	if c.NumSets() != 8 {
		t.Fatalf("NumSets = %d, want 8", c.NumSets())
	}
	// Same word -> same set regardless of byte offset within the word.
	if c.SetIndex(0x100) != c.SetIndex(0x103) {
		t.Error("byte offsets within a word map to different sets")
	}
	// Consecutive words -> consecutive sets (modulo).
	if c.SetIndex(0x100)+1 != c.SetIndex(0x104) {
		t.Error("consecutive words not in consecutive sets")
	}
	// Stride of numSets words wraps to the same set.
	if c.SetIndex(0x100) != c.SetIndex(0x100+8*4) {
		t.Error("stride of numSets*4 bytes should map to the same set")
	}
}

func TestProbeInstallVictimLRU(t *testing.T) {
	c := MustNew(8, 2) // one set, 2 ways
	if c.Probe(0x10) != nil {
		t.Fatal("probe hit in empty cache")
	}
	l1 := c.Victim(0x10)
	c.Install(l1, 0x10)
	l2 := c.Victim(0x20)
	if l2 == l1 {
		t.Fatal("victim chose a valid line while an invalid one exists")
	}
	c.Install(l2, 0x20)

	if got := c.Probe(0x10); got != l1 {
		t.Error("probe missed installed line 0x10")
	}
	if got := c.Probe(0x12); got != l1 {
		t.Error("probe with byte offset missed the line")
	}

	// Touch 0x10 so 0x20 is LRU.
	c.Touch(l1)
	if v := c.Victim(0x30); v != l2 {
		t.Error("victim is not the least recently used line")
	}
	c.Touch(l2)
	if v := c.Victim(0x30); v != l1 {
		t.Error("victim did not follow LRU update")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := MustNew(32, 2)
	for a := uint32(0); a < 32; a += 4 {
		l := c.Victim(a)
		c.Install(l, a)
		l.Dirty, l.RD, l.PW = true, true, true
	}
	c.InvalidateAll()
	for _, l := range c.Lines() {
		if l.Valid || l.Dirty || l.RD || l.PW || l.lru != 0 {
			t.Fatalf("line not cleared: %+v", l)
		}
	}
}

func TestLineDataMerge(t *testing.T) {
	var l Line
	l.WriteData(0x100, 4, 0xAABBCCDD)
	if l.ReadData(0x100, 4) != 0xAABBCCDD {
		t.Fatal("word round trip failed")
	}
	l.WriteData(0x101, 1, 0x42)
	if l.Data != 0xAABB42DD {
		t.Errorf("byte merge = %#x, want 0xAABB42DD", l.Data)
	}
	l.WriteData(0x102, 2, 0x1234)
	if l.Data != 0x123442DD {
		t.Errorf("half merge = %#x, want 0x123442DD", l.Data)
	}
	if l.ReadData(0x101, 1) != 0x42 || l.ReadData(0x102, 2) != 0x1234 || l.ReadData(0x103, 1) != 0x12 {
		t.Error("sub-word reads wrong")
	}
}

// Property: the line's ReadData/WriteData behave like a 4-byte array.
func TestLineDataVersusBytes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var l Line
	var ref [4]byte
	for i := 0; i < 20000; i++ {
		size := []int{1, 2, 4}[r.Intn(3)]
		off := uint32(r.Intn(4)) &^ uint32(size-1)
		if r.Intn(2) == 0 {
			v := r.Uint32()
			l.WriteData(off, size, v)
			for j := 0; j < size; j++ {
				ref[off+uint32(j)] = byte(v >> (8 * j))
			}
		} else {
			var want uint32
			for j := 0; j < size; j++ {
				want |= uint32(ref[off+uint32(j)]) << (8 * j)
			}
			if got := l.ReadData(off, size); got != want {
				t.Fatalf("step %d: ReadData(%d,%d) = %#x, want %#x", i, off, size, got, want)
			}
		}
	}
}

// Property: a write-back cache over a backing store always returns the same
// values as a flat reference memory, for random access streams.
func TestCacheVersusFlatModel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := MustNew(64, 2)
	backing := map[uint32]uint32{} // word-addressed
	ref := map[uint32]uint32{}

	readThrough := func(addr uint32) *Line {
		if l := c.Probe(addr); l != nil {
			c.Touch(l)
			return l
		}
		l := c.Victim(addr)
		if l.Valid && l.Dirty {
			backing[l.Addr()>>2] = l.Data
		}
		c.Install(l, addr)
		l.Dirty = false
		l.Data = backing[addr>>2]
		return l
	}

	for i := 0; i < 100000; i++ {
		addr := uint32(r.Intn(256)) &^ 3
		if r.Intn(2) == 0 {
			v := r.Uint32()
			l := readThrough(addr)
			l.WriteData(addr, 4, v)
			l.Dirty = true
			ref[addr>>2] = v
		} else {
			l := readThrough(addr)
			if got := l.ReadData(addr, 4); got != ref[addr>>2] {
				t.Fatalf("step %d: read %#x = %#x, want %#x", i, addr, got, ref[addr>>2])
			}
		}
	}
}

func TestAddrRoundTrip(t *testing.T) {
	var l Line
	for _, a := range []uint32{0, 4, 0x1234_5678 &^ 3, 0xFFFF_FFFC} {
		l.Tag = a >> 2
		if l.Addr() != a {
			t.Errorf("Addr() = %#x, want %#x", l.Addr(), a)
		}
	}
}

// TestEqual: a clone compares equal, and any single line field or the LRU
// stamp makes caches unequal.
func TestEqual(t *testing.T) {
	c := MustNew(64, 2)
	c.Install(c.Victim(0x100), 0x100)
	c.Install(c.Victim(0x120), 0x120)
	if !c.Equal(c.Clone()) {
		t.Fatal("a clone compares unequal")
	}
	for _, p := range []struct {
		name string
		f    func(*Cache)
	}{
		{"data", func(c *Cache) { c.Probe(0x100).Data = 1 }},
		{"dirty", func(c *Cache) { c.Probe(0x100).Dirty = true }},
		{"rd", func(c *Cache) { c.Probe(0x100).RD = true }},
		{"pw", func(c *Cache) { c.Probe(0x100).PW = true }},
		{"line stamp", func(c *Cache) { l := c.Probe(0x100); l.SetLRU(l.LRU() + 5) }},
		{"LRU stamp", func(c *Cache) { c.stamp++ }},
		{"invalidated", func(c *Cache) { c.InvalidateAll() }},
	} {
		d := c.Clone()
		p.f(d)
		if c.Equal(d) || d.Equal(c) {
			t.Errorf("%s: perturbed cache compares equal", p.name)
		}
	}
}
