package systems

import (
	"testing"

	"nacho/internal/cache"
	"nacho/internal/checkpoint"
	"nacho/internal/metrics"
	"nacho/internal/sim"
)

// replica forks sys onto a fresh test clock standing at cycle now.
func replica(sys sim.System, now uint64) sim.System {
	return sys.Fork(&sim.TestClock{Cycle: now}, fakeRegs{}, &metrics.Counters{})
}

// validLine returns a valid line of c.
func validLine(t *testing.T, c *cache.Cache) *cache.Line {
	t.Helper()
	ls := c.Lines()
	for i := range ls {
		if ls[i].Valid {
			return &ls[i]
		}
	}
	t.Fatal("no valid cache line")
	return nil
}

// TestEqualState: two replicas of one system compare equal, also at
// different clocks, and perturbing any single keyed field makes them
// unequal.
func TestEqualState(t *testing.T) {
	type perturbation struct {
		name string
		f    func(t *testing.T, s sim.System)
	}
	nvmWord := perturbation{"NVM word", func(_ *testing.T, s sim.System) { s.Mem().WriteRaw(0x300, 4, 0xdead) }}
	cases := map[Kind][]perturbation{
		KindVolatile: {nvmWord},
		KindClank: {nvmWord,
			{"tracker entry", func(_ *testing.T, s sim.System) { s.(*Clank).tracker.ObserveRead(0x400, 4) }},
			{"checkpoint seq", func(_ *testing.T, s sim.System) {
				k := s.(*Clank)
				k.ckpt = checkpoint.NewStore(k.nvm, testCkptBase, 0)
			}},
		},
		KindPROWL: {nvmWord,
			{"valid line", func(_ *testing.T, s sim.System) { s.(*PROWL).lookup(0x100).Data++ }},
			{"line stamp", func(_ *testing.T, s sim.System) { l := s.(*PROWL).lookup(0x100); l.SetLRU(l.LRU() + 1) }},
			{"LRU stamp", func(_ *testing.T, s sim.System) { s.(*PROWL).stamp++ }},
			{"checkpoint seq", func(_ *testing.T, s sim.System) {
				p := s.(*PROWL)
				p.ckpt = checkpoint.NewStore(p.nvm, testCkptBase, 2*p.numSets)
			}},
		},
		KindReplayCache: {nvmWord,
			{"valid line", func(t *testing.T, s sim.System) { validLine(t, s.(*ReplayCache).cache).Dirty = false }},
			{"LRU stamp", func(t *testing.T, s sim.System) {
				r := s.(*ReplayCache)
				r.cache.Touch(validLine(t, r.cache))
			}},
			{"tracker entry", func(_ *testing.T, s sim.System) { s.(*ReplayCache).tracker.ObserveWrite(0x400, 4) }},
			{"checkpoint seq", func(_ *testing.T, s sim.System) {
				r := s.(*ReplayCache)
				r.ckpt = checkpoint.NewStore(r.nvm, testCkptBase, 0)
			}},
			{"region sequence", func(_ *testing.T, s sim.System) { s.(*ReplayCache).regionSeq++ }},
			{"region start relative to the clock", func(_ *testing.T, s sim.System) { s.(*ReplayCache).regionStart-- }},
			{"write-back queue entry", func(_ *testing.T, s sim.System) {
				r := s.(*ReplayCache)
				r.queue = append(r.queue, r.clk.Now()+12)
			}},
			{"write-back completion relative to the clock", func(_ *testing.T, s sim.System) { s.(*ReplayCache).queue[0]++ }},
		},
		KindWriteThrough: {nvmWord,
			{"valid line", func(t *testing.T, s sim.System) { validLine(t, s.(*WriteThrough).cache).Data++ }},
			{"LRU stamp", func(t *testing.T, s sim.System) {
				w := s.(*WriteThrough)
				w.cache.Touch(validLine(t, w.cache))
			}},
			{"tracker entry", func(_ *testing.T, s sim.System) { s.(*WriteThrough).tracker.ObserveRead(0x400, 4) }},
			{"checkpoint seq", func(_ *testing.T, s sim.System) {
				w := s.(*WriteThrough)
				w.ckpt = checkpoint.NewStore(w.nvm, testCkptBase, 0)
			}},
		},
	}
	for kind, perturbations := range cases {
		t.Run(string(kind), func(t *testing.T) {
			sys, clk, _ := build(t, kind)
			sys.Store(0x100, 4, 1)
			sys.Load(0x104, 4)
			sys.Store(0x200, 4, 2)
			sys.Load(0x100, 4)
			if r, ok := sys.(*ReplayCache); ok {
				r.queue = append(r.queue, clk.Cycle+6) // one write-back in flight
			}
			if !replica(sys, clk.Cycle).EqualState(replica(sys, clk.Cycle)) {
				t.Fatal("two replicas compare unequal")
			}
			// A later clock shifts ReplayCache's region start and queue
			// with it; every other system keeps no cycle.
			later := replica(sys, clk.Cycle+1000)
			if r, ok := later.(*ReplayCache); ok {
				r.regionStart += 1000
				for i := range r.queue {
					r.queue[i] += 1000
				}
			}
			if !replica(sys, clk.Cycle).EqualState(later) {
				t.Fatal("replicas at different clocks compare unequal")
			}
			for _, p := range perturbations {
				a, b := replica(sys, clk.Cycle), replica(sys, clk.Cycle)
				p.f(t, b)
				if a.EqualState(b) || b.EqualState(a) {
					t.Errorf("%s: perturbed replica compares equal", p.name)
				}
			}
		})
	}
}
