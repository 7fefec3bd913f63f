// sim.FastPort implementations for the baseline systems (see
// internal/core/fastport.go for the NACHO controller's). Each port serves
// only plain cache hits with settled metadata — everything that could evict,
// checkpoint, cut a region, or read the clock declines and falls back to the
// full Load/Store, which is what keeps results, counters, and probe streams
// byte-identical. Every port is withheld while a probe is attached.
//
// Volatile has no fast port: the AOT engine serves it through the cheaper
// mem.DirectPort, which it takes before asking for a fast port and which is
// refused under the same probe condition.
//
// Clank deliberately has no port: it is cacheless, so every access classifies
// against its address-monitor hardware and pays a dynamic NVM cost — there is
// no "plain hit" to devirtualize (its fast path in hardware, non-WAR
// accesses, still reaches NVM and the clock here).
package systems

import "nacho/internal/sim"

// FastPort implements sim.FastMemory for the write-through baseline: read
// hits are servable; stores always pay the NVM write (and may trigger the
// exact tracker's WAR checkpoint), so StoreHit stays nil.
func (w *WriteThrough) FastPort() (sim.FastPort, bool) {
	return sim.FastPort{
		LoadHit: func(addr uint32, size int) (uint32, bool) {
			line := w.cache.Probe(addr)
			if line == nil {
				return 0, false
			}
			w.tracker.ObserveRead(addr, size)
			w.c.CacheHits++
			w.cache.Touch(line)
			return line.ReadData(addr, size), true
		},
		HitCycles: w.cost.HitCycles,
	}, w.probe == nil
}

// FastPort implements sim.FastMemory for ReplayCache: read hits are servable;
// stores read the clock to enforce the region-length cap (and may close a
// region), so StoreHit stays nil.
func (r *ReplayCache) FastPort() (sim.FastPort, bool) {
	return sim.FastPort{
		LoadHit: func(addr uint32, size int) (uint32, bool) {
			line := r.cache.Probe(addr)
			if line == nil {
				return 0, false
			}
			r.tracker.ObserveRead(addr, size)
			r.c.CacheHits++
			r.cache.Touch(line)
			return line.ReadData(addr, size), true
		},
		HitCycles: r.cost.HitCycles,
	}, r.probe == nil
}

// FastPort implements sim.FastMemory for PROWL: it has no WAR metadata on
// hits (checkpoints happen only on forced dirty evictions, i.e. misses), so
// both directions are servable on a lookup hit.
func (p *PROWL) FastPort() (sim.FastPort, bool) {
	return sim.FastPort{
		LoadHit: func(addr uint32, size int) (uint32, bool) {
			line := p.lookup(addr)
			if line == nil {
				return 0, false
			}
			p.c.CacheHits++
			p.touch(line)
			return line.ReadData(addr, size), true
		},
		StoreHit: func(addr uint32, size int, val uint32) bool {
			line := p.lookup(addr)
			if line == nil {
				return false
			}
			p.c.CacheHits++
			p.touch(line)
			line.WriteData(addr, size, val)
			line.Dirty = true
			return true
		},
		HitCycles: p.cost.HitCycles,
	}, p.probe == nil
}
