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
	cost    mem.CostModel

	clk   sim.Clock
	regs  sim.RegSource
	c     *metrics.Counters
	probe sim.Probe
}

// NewWriteThrough builds the system with the given read-cache geometry.
func NewWriteThrough(nvm *mem.NVM, sizeBytes, ways int, checkpointBase uint32, cost mem.CostModel) (*WriteThrough, error) {
	ch, err := cache.New(sizeBytes, ways)
	if err != nil {
		return nil, err
	}
	return &WriteThrough{
		cache:   ch,
		tracker: track.New(),
		nvm:     nvm,
		ckpt:    checkpoint.NewStore(nvm, checkpointBase, 0),
		cost:    cost,
	}, nil
}

// Name implements sim.System.
func (w *WriteThrough) Name() string { return string(KindWriteThrough) }

// Attach implements sim.System.
func (w *WriteThrough) Attach(clk sim.Clock, regs sim.RegSource, c *metrics.Counters, p sim.Probe) {
	w.clk, w.regs, w.c, w.probe = clk, regs, c, p
	w.nvm.Attach(clk, c, p)
	w.ckpt.Init(regs.RegSnapshot(), p)
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
	w.clk.Advance(w.cost.HitCycles)
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
	if w.probe != nil {
		w.probe.OnWriteBack(sim.WriteBackEvent{Cycle: w.clk.Now(), Addr: addr, Size: size, Verdict: sim.VerdictWriteThrough})
	}
	w.clk.Advance(w.cost.HitCycles)
}

func (w *WriteThrough) checkpoint(forced bool) {
	w.ckpt.Checkpoint(w.regs.RegSnapshot(), nil, func() {
		w.c.Checkpoints++
		if forced {
			w.c.ForcedCkpts++
		}
		if w.probe != nil {
			w.probe.OnCheckpointCommit(sim.CheckpointEvent{Cycle: w.clk.Now(), Kind: sim.CheckpointCommit, Forced: forced})
		}
	})
	w.tracker.Reset()
}

// Fork implements sim.System: forked NVM plus deep-copied read cache,
// tracker, and checkpoint-store position.
func (w *WriteThrough) Fork(clk sim.Clock, regs sim.RegSource, c *metrics.Counters) sim.System {
	nvm := w.nvm.Fork()
	nvm.Attach(clk, c, nil)
	return &WriteThrough{
		cache:   w.cache.Clone(),
		tracker: w.tracker.Clone(),
		nvm:     nvm,
		ckpt:    w.ckpt.Fork(nvm),
		cost:    w.cost,
		clk:     clk,
		regs:    regs,
		c:       c,
	}
}

// EqualState implements sim.System: the checkpoint-store position, the
// read cache, the tracker and NVM.
func (w *WriteThrough) EqualState(o sim.System) bool {
	q, ok := o.(*WriteThrough)
	return ok && w.ckpt.EqualState(q.ckpt) && w.cache.Equal(q.cache) && w.tracker.Equal(q.tracker) && w.nvm.Equal(q.nvm)
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
	w.nvm.Release()
	w.cache.Release()
	w.tracker.Release()
}
