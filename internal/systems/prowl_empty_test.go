package systems

import (
	"testing"

	"nacho/internal/cache"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
)

// checkPROWLEmpty fails t when p's stamp is 0 yet a line of either way is not
// zero: the invariant EqualState and PowerFailure rely on to skip the scan of
// an empty cache.
func checkPROWLEmpty(t *testing.T, step string, p *PROWL) {
	t.Helper()
	if p.stamp != 0 {
		return
	}
	for i, l := range p.lines.Lines {
		if l != (cache.Line{}) {
			t.Fatalf("after %s: stamp 0, but line %d is %+v", step, i, l)
		}
	}
}

// TestPROWLEmptyInvariant is cache's TestEmptyCacheInvariant for PROWL's own
// way arrays: after every step a stamp of 0 means every line is zero, and the
// way arrays a new PROWL draws from the cache free list read as empty.
func TestPROWLEmptyInvariant(t *testing.T) {
	sys, _, _ := build(t, KindPROWL)
	p := sys.(*PROWL)
	var released *cache.Block
	fill := func(p *PROWL) *PROWL {
		// Four times the capacity, read then written: misses, relocations
		// and checkpointing dirty evictions.
		for a := uint32(0x400); a < 0x400+4*64; a += 4 {
			p.Load(a, 4)
			p.Store(a, 2, a)
		}
		return p
	}
	for _, s := range []struct {
		name string
		f    func(*PROWL) *PROWL
	}{
		{"NewPROWL", func(p *PROWL) *PROWL { return p }},
		{"PowerFailure of an empty cache", func(p *PROWL) *PROWL { p.PowerFailure(); return p }},
		{"Fork of an empty cache", func(p *PROWL) *PROWL { return replica(p, 0).(*PROWL) }},
		{"Load", func(p *PROWL) *PROWL { p.Load(0x400, 4); return p }},
		{"Store", func(p *PROWL) *PROWL { p.Store(0x404, 4, 9); return p }},
		{"ForceCheckpoint", func(p *PROWL) *PROWL { p.ForceCheckpoint(); return p }},
		{"fill", fill},
		{"Fork", func(p *PROWL) *PROWL { return replica(p, 0).(*PROWL) }},
		{"PowerFailure", func(p *PROWL) *PROWL { p.PowerFailure(); return p }},
		{"refill", fill},
		{"Release then NewPROWL", func(p *PROWL) *PROWL {
			released = p.lines
			p.Release()
			n, err := NewPROWL(mem.NewNVM(mem.NewSpace()), testConfig().CacheSize)
			if err != nil {
				t.Fatal(err)
			}
			n.Attach(&sim.TestClock{}, fakeRegs{}, &metrics.Counters{}, nil)
			return n
		}},
	} {
		p = s.f(p)
		checkPROWLEmpty(t, s.name, p)
	}
	if p.lines != released {
		t.Log("the free list did not hand the released way arrays back")
	}
	if p.stamp != 0 {
		t.Fatalf("NewPROWL returned stamp %d", p.stamp)
	}
	for a := uint32(0x400); a < 0x400+4*64; a += 4 {
		if p.lookup(a) != nil {
			t.Fatalf("a new PROWL hits %#x", a)
		}
	}
}
