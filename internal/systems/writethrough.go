package systems

import (
	"nacho/internal/cache"
	"nacho/internal/checkpoint"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
	"nacho/internal/track"
)

// WriteThrough is this reproduction's Section 8 extension: the write-through
// cache model the paper names as outside NACHO's write-back assumption
// ("for write-through caches, the implementation needs to be modified").
//
// Reads are cached; every store writes straight through to NVM (updating the
// cached copy on a hit, no allocation on a miss). Because writes are never
// delayed, the cache cannot serve as the WAR detector — an exact hardware
// tracker (as in Clank) checkpoints the registers before any store to a
// read-dominated location. All cache lines stay clean, so checkpoints are
// register-only and power failures lose nothing but locality.
//
// The comparison against NACHO (cmd/nachobench -exp ext-wt) quantifies what
// the paper's write-back choice buys: write-through pays the NVM latency on
// every store and checkpoints as often as Clank, gaining only read locality.
type WriteThrough struct {
	cache   *cache.Cache
	tracker *track.Tracker
	nvm     *mem.NVM
	ckpt    *checkpoint.Store

	clk sim.Clock
	c   *metrics.Counters
}

// NewWriteThrough builds the system with the given read-cache geometry.
func NewWriteThrough(nvm *mem.NVM, sizeBytes, ways int) (*WriteThrough, error) {
	ch, err := cache.New(sizeBytes, ways)
	if err != nil {
		return nil, err
	}
	return &WriteThrough{
		cache:   ch,
		tracker: track.New(),
		nvm:     nvm,
		ckpt:    checkpoint.NewStore(nvm, 0),
	}, nil
}

// Name implements sim.System.
func (w *WriteThrough) Name() string { return string(KindWriteThrough) }

// Attach implements sim.System: the checkpoint store wires the NVM.
func (w *WriteThrough) Attach(clk sim.Clock, regs sim.RegSource, c *metrics.Counters, p sim.Probe) {
	w.clk, w.c = clk, c
	w.ckpt.Attach(clk, regs, c, p)
}

// Load implements sim.System: served from the read cache when possible.
func (w *WriteThrough) Load(addr uint32, size int) uint32 {
	w.tracker.ObserveRead(addr, size)
	line := w.cache.Probe(addr)
	if line == nil {
		w.c.CacheMisses++
		line = w.cache.Victim(addr)
		// Lines are never dirty: replacement is free.
		w.cache.Install(line, addr)
		line.Data = w.nvm.Read(addr&^3, 4)
	} else {
		w.c.CacheHits++
		w.cache.Touch(line)
	}
	w.clk.Advance(mem.HitCycles)
	return line.ReadData(addr, size)
}

// Store implements sim.System: write-through with no allocation; a WAR
// checkpoint (registers only) precedes stores to read-dominated locations.
func (w *WriteThrough) Store(addr uint32, size int, val uint32) {
	if w.tracker.ReadDominated(addr, size) {
		w.checkpoint(false)
	}
	w.tracker.ObserveWrite(addr, size)
	// A store miss goes straight through, with no allocation.
	if line := w.cache.Probe(addr); line != nil {
		w.c.CacheHits++
		w.cache.Touch(line)
		line.WriteData(addr, size, val)
	}
	w.nvm.Write(addr, size, val)
	w.ckpt.WriteBack(addr, size, sim.VerdictWriteThrough)
	w.clk.Advance(mem.HitCycles)
}

// checkpoint persists the registers; the store counts and announces it.
func (w *WriteThrough) checkpoint(forced bool) {
	w.ckpt.Checkpoint(nil, sim.CheckpointEvent{Forced: forced})
	w.tracker.Reset()
}

// Fork implements sim.System: a forked checkpoint store (and with it
// forked NVM) plus deep-copied read cache and tracker.
func (w *WriteThrough) Fork(clk sim.Clock, regs sim.RegSource, c *metrics.Counters) sim.System {
	ckpt := w.ckpt.Fork(clk, regs, c)
	return &WriteThrough{
		cache:   w.cache.Clone(),
		tracker: w.tracker.Clone(),
		nvm:     ckpt.NVM(),
		ckpt:    ckpt,
		clk:     clk,
		c:       c,
	}
}

// EqualState implements sim.System: the read cache, the tracker and the
// checkpoint store with its NVM.
func (w *WriteThrough) EqualState(o sim.System) bool {
	q, ok := o.(*WriteThrough)
	return ok && w.cache.Equal(q.cache) && w.tracker.Equal(q.tracker) && w.ckpt.EqualState(q.ckpt)
}

// NotifySP implements sim.System (no stack tracking: nothing dirty to drop).
func (w *WriteThrough) NotifySP(uint32) {}

// ForceCheckpoint implements sim.System.
func (w *WriteThrough) ForceCheckpoint() { w.checkpoint(true) }

// PowerFailure implements sim.System: the clean cache just vanishes.
func (w *WriteThrough) PowerFailure() {
	w.cache.InvalidateAll()
	w.tracker.Reset()
}

// Restore implements sim.System.
func (w *WriteThrough) Restore() (sim.Snapshot, bool) {
	return w.ckpt.Restore()
}

// Mem implements sim.System.
func (w *WriteThrough) Mem() sim.MemReaderWriter { return w.nvm }

// Release implements sim.System: NVM, the read cache and the tracker go
// back.
func (w *WriteThrough) Release() {
	w.ckpt.Release()
	w.cache.Release()
	w.tracker.Release()
}
