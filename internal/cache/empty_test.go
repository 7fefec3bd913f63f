package cache

import (
	"sync"
	"testing"
)

// checkEmptyInvariant fails t when c's stamp is 0 yet a line or key is not
// zero: the invariant Equal and InvalidateAll rely on to skip the scan of an
// empty cache.
func checkEmptyInvariant(t *testing.T, step string, c *Cache) {
	t.Helper()
	if c.stamp != 0 {
		return
	}
	for i := range c.lines {
		if c.lines[i] != (Line{}) || c.keys[i] != 0 {
			t.Fatalf("after %s: stamp 0, but line %d is %+v with key %#x", step, i, c.lines[i], c.keys[i])
		}
	}
}

// TestEmptyCacheInvariant drives every operation that reaches a cache's
// storage, on several geometries, and requires a stamp of 0 to mean that
// every line and key is zero after each step. The last steps fill a cache,
// release it and draw its storage back through New, which must read as
// empty.
func TestEmptyCacheInvariant(t *testing.T) {
	for _, g := range []struct{ size, ways int }{{64, 2}, {24, 3}, {512, 2}} {
		c := MustNew(g.size, g.ways)
		var released *Block
		fill := func(c *Cache) *Cache {
			for a := uint32(0); a < uint32(2*g.size); a += LineSize {
				l := c.Probe(a)
				if l == nil {
					l = c.Victim(a)
					c.Install(l, a)
				}
				l.WriteData(a, 4, a^0x5a5a5a5a)
				l.Dirty, l.RD, l.PW = true, true, true
			}
			return c
		}
		for _, s := range []struct {
			name string
			f    func(*Cache) *Cache
		}{
			{"New", func(c *Cache) *Cache { return c }},
			{"InvalidateAll of an empty cache", func(c *Cache) *Cache { c.InvalidateAll(); return c }},
			{"Clone of an empty cache", func(c *Cache) *Cache { return c.Clone() }},
			{"Lines writes", func(c *Cache) *Cache {
				ls := c.Lines()
				for i := range ls {
					ls[i].Dirty, ls[i].RD, ls[i].PW = false, false, false
				}
				return c
			}},
			{"Install", func(c *Cache) *Cache { c.Install(c.Victim(0x40), 0x40); return c }},
			{"Touch", func(c *Cache) *Cache { c.Touch(c.Probe(0x40)); return c }},
			{"Set writes", func(c *Cache) *Cache {
				for _, l := range c.Set(0x40) {
					if l.Valid {
						l.WriteData(0x40, 4, 7)
						l.Dirty = true
					}
				}
				return c
			}},
			{"fill", fill},
			{"Clone", func(c *Cache) *Cache { return c.Clone() }},
			{"InvalidateAll", func(c *Cache) *Cache { c.InvalidateAll(); return c }},
			{"refill", fill},
			{"Release then New", func(c *Cache) *Cache {
				released = c.blk
				c.Release()
				return MustNew(g.size, g.ways)
			}},
		} {
			c = s.f(c)
			checkEmptyInvariant(t, s.name, c)
		}
		// The cache New just drew from the free list (the refilled one's
		// storage, unless the pool dropped it) must read as empty.
		if c.blk != released {
			t.Logf("%dB/%d-way: the free list did not hand the released storage back", g.size, g.ways)
		}
		if c.stamp != 0 {
			t.Fatalf("%dB/%d-way: New returned stamp %d", g.size, g.ways, c.stamp)
		}
		for a := uint32(0); a < uint32(2*g.size); a += LineSize {
			if c.Probe(a) != nil {
				t.Fatalf("%dB/%d-way: a new cache hits %#x", g.size, g.ways, a)
			}
		}
		if !c.Equal(MustNew(g.size, g.ways)) {
			t.Fatalf("%dB/%d-way: a recycled new cache differs from a fresh one", g.size, g.ways)
		}
	}
}

// TestReleasedCachePanics: a released cache has no storage, so a use panics
// instead of reading lines another cache now holds.
func TestReleasedCachePanics(t *testing.T) {
	c := MustNew(64, 2)
	c.Install(c.Victim(0x40), 0x40)
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Probe of a released cache did not panic")
		}
	}()
	c.Probe(0x40)
}

// TestConcurrentRecycling has several goroutines draw caches of two sizes
// from the shared free list, fill, clone and release them, as concurrent
// harness workers and campaign seeds do. Every new cache must read as empty
// and every clone as its original; under -race the free list must not race.
func TestConcurrentRecycling(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				size := []int{64, 512}[(g+i)%2]
				c := MustNew(size, 2)
				if c.stamp != 0 {
					t.Errorf("goroutine %d: a new cache has stamp %d", g, c.stamp)
					return
				}
				for a := uint32(0); a < uint32(size); a += LineSize {
					if c.Probe(a) != nil {
						t.Errorf("goroutine %d: a new cache hits %#x", g, a)
						return
					}
					l := c.Victim(a)
					c.Install(l, a)
					l.Data = a ^ uint32(g)
				}
				d := c.Clone()
				if !d.Equal(c) {
					t.Errorf("goroutine %d: a clone differs from its original", g)
					return
				}
				c.Release()
				d.Release()
			}
		}()
	}
	wg.Wait()
}
