// Package systems implements the comparison systems of paper Section 6.1.2
// behind the common sim.System interface: the fully volatile normalization
// baseline, idealized Clank, PROWL, ReplayCache, and the NACHO family (built
// on internal/core). The Build registry in systems.go is the single entry
// point the harness and public API use.
package systems

import (
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
)

// Volatile is the normalization baseline of Figure 5: a system whose main
// memory uses the same technology (and latency) as the data cache, with no
// intermittent-computing support at all. It defines the 1.0 line every other
// system is normalized against.
type Volatile struct {
	space *mem.Space
	clk   sim.Clock
	c     *metrics.Counters
}

// NewVolatile builds the baseline over the given memory image.
func NewVolatile(space *mem.Space) *Volatile {
	return &Volatile{space: space}
}

// Name implements sim.System.
func (v *Volatile) Name() string { return "volatile" }

// Attach implements sim.System. The baseline emits no probe event: it has
// no NVM, write-backs or checkpoints.
func (v *Volatile) Attach(clk sim.Clock, _ sim.RegSource, c *metrics.Counters, _ sim.Probe) {
	v.clk, v.c = clk, c
}

// Load implements sim.System: an SRAM access (counted as a hit so the
// energy model sees the SRAM traffic).
func (v *Volatile) Load(addr uint32, size int) uint32 {
	v.c.CacheHits++
	v.clk.Advance(mem.HitCycles)
	return v.space.Read(addr, size)
}

// Store implements sim.System: an SRAM access.
func (v *Volatile) Store(addr uint32, size int, val uint32) {
	v.c.CacheHits++
	v.clk.Advance(mem.HitCycles)
	v.space.Write(addr, size, val)
}

// Fork implements sim.System: the baseline's entire state is its memory
// space, forked copy-on-write.
func (v *Volatile) Fork(clk sim.Clock, _ sim.RegSource, c *metrics.Counters) sim.System {
	return &Volatile{space: v.space.Fork(), clk: clk, c: c}
}

// EqualState implements sim.System: the memory space is the whole state.
func (v *Volatile) EqualState(o sim.System) bool {
	q, ok := o.(*Volatile)
	if !ok {
		return false
	}
	_, eq := v.space.Equal(q.space)
	return eq
}

// NotifySP implements sim.System (no stack tracking).
func (v *Volatile) NotifySP(uint32) {}

// ForceCheckpoint implements sim.System (no checkpoints to create).
func (v *Volatile) ForceCheckpoint() {}

// PowerFailure implements sim.System. The volatile baseline cannot survive
// one — main memory is volatile — so losing everything is the honest model.
func (v *Volatile) PowerFailure() {}

// Restore implements sim.System: there is never a checkpoint to restore.
func (v *Volatile) Restore() (sim.Snapshot, bool) { return sim.Snapshot{}, false }

// Mem implements sim.System.
func (v *Volatile) Mem() sim.MemReaderWriter { return v.space }

// Release implements sim.System: the memory space is all there is.
func (v *Volatile) Release() { v.space.Release() }
