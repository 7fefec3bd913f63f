// FastPort: the devirtualized hit path of the NACHO controller.
//
// The paper's argument (Section 4) is that hits in the volatile data cache
// are the common, cheap case and only WAR/eviction/checkpoint events need the
// expensive machinery. The execution engines exploit the same structure in
// the simulator: a plain hit — valid line, no rd/pw first-touch transition,
// no eviction, no adaptive-checkpoint bookkeeping — is served here without a
// dynamic sim.System call, probe emission, or clock virtual dispatch.
// Everything else declines and falls back to Load/Store, which reproduces the
// full Algorithm 1 behavior (including the panic-at-failure-instant clock
// semantics) byte for byte.
package core

import "nacho/internal/sim"

// FastPort implements sim.FastMemory. The port is withheld while a probe is
// attached: probed runs keep the reference path as the sole event emitter.
func (k *Controller) FastPort() (sim.FastPort, bool) {
	return sim.FastPort{
		LoadHit:   k.loadHit,
		StoreHit:  k.storeHit,
		HitCycles: k.opts.Cost.HitCycles,
	}, k.probe == nil
}

// loadHit serves a read that hits a line with settled WAR metadata. A
// first-touch line in cache-bits mode (pw=rd=dirty=0) declines: the full path
// runs updateLine's RD transition there (Algorithm 1's UpdateLine).
func (k *Controller) loadHit(addr uint32, size int) (uint32, bool) {
	// Serve straight from the memoized line when the access repeats: tags
	// cannot change until the next dropPortMemo.
	line := k.portLoadLine
	if line == nil || line.Tag != addr>>2 {
		if line = k.cache.Probe(addr); line == nil {
			return 0, false
		}
		k.portLoadLine = line
	}
	if k.opts.WARMode == WARCacheBits && !line.PW && !line.RD && !line.Dirty {
		return 0, false
	}
	k.c.CacheHits++
	k.cache.Touch(line)
	if k.tracker != nil {
		k.tracker.ObserveRead(addr, size)
	}
	return line.ReadData(addr, size), true
}

// storeHit serves a write that hits an already-dirty (or metadata-settled)
// line. It declines on the first-touch transition (cache-bits updateLine) and
// whenever the adaptive dirty-threshold policy would have to count a newly
// dirtied line — the full path owns dirtyCount and the possible adaptive
// checkpoint.
func (k *Controller) storeHit(addr uint32, size int, val uint32) bool {
	line := k.portStoreLine
	if line == nil || line.Tag != addr>>2 {
		if line = k.cache.Probe(addr); line == nil {
			return false
		}
		k.portStoreLine = line
	}
	if k.opts.WARMode == WARCacheBits && !line.PW && !line.RD && !line.Dirty {
		return false
	}
	if k.opts.DirtyThreshold > 0 && !line.Dirty {
		return false
	}
	k.c.CacheHits++
	k.cache.Touch(line)
	if k.tracker != nil {
		k.tracker.ObserveWrite(addr, size)
	}
	line.WriteData(addr, size, val)
	line.Dirty = true
	return true
}
