package systems

import (
	"nacho/internal/checkpoint"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
	"nacho/internal/track"
)

// Clank is the idealized version of Clank [27] used by the paper
// (Section 6.1.2): a cacheless system whose every access goes straight to
// NVM, with a hardware memory tracker that detects writes to read-dominated
// addresses and checkpoints the registers (double-buffered) before letting
// such a write proceed. As in the paper, the tracker is ideal — unbounded
// address sets, no tracking-access cost.
type Clank struct {
	nvm     *mem.NVM
	ckpt    *checkpoint.Store
	tracker *track.Tracker

	clk   sim.Clock
	regs  sim.RegSource
	c     *metrics.Counters
	probe sim.Probe
}

// NewClank builds the baseline over the given NVM. checkpointBase locates
// the double-buffered register checkpoint area.
func NewClank(nvm *mem.NVM, checkpointBase uint32) *Clank {
	return &Clank{
		nvm:     nvm,
		ckpt:    checkpoint.NewStore(nvm, checkpointBase, 0),
		tracker: track.New(),
	}
}

// Name implements sim.System.
func (k *Clank) Name() string { return "clank" }

// Attach implements sim.System.
func (k *Clank) Attach(clk sim.Clock, regs sim.RegSource, c *metrics.Counters, p sim.Probe) {
	k.clk, k.regs, k.c, k.probe = clk, regs, c, p
	k.nvm.Attach(clk, c, p)
	k.ckpt.Init(regs.RegSnapshot(), p)
}

// Load implements sim.System: a direct NVM read.
func (k *Clank) Load(addr uint32, size int) uint32 {
	k.tracker.ObserveRead(addr, size)
	v := k.nvm.Read(addr, size)
	if k.probe != nil {
		k.probe.OnAccess(sim.AccessEvent{Cycle: k.clk.Now(), Addr: addr, Size: size, Value: v, Class: sim.AccessNVM})
	}
	return v
}

// Store implements sim.System: a direct NVM write, preceded by a register
// checkpoint when the target is read-dominated (the WAR case).
func (k *Clank) Store(addr uint32, size int, val uint32) {
	if k.tracker.ReadDominated(addr, size) {
		k.checkpoint(false)
	}
	k.tracker.ObserveWrite(addr, size)
	k.nvm.Write(addr, size, val)
	if k.probe != nil {
		k.probe.OnWriteBack(sim.WriteBackEvent{Cycle: k.clk.Now(), Addr: addr, Size: size, Verdict: sim.VerdictWriteThrough})
		k.probe.OnAccess(sim.AccessEvent{Cycle: k.clk.Now(), Addr: addr, Size: size, Value: val, Store: true, Class: sim.AccessNVM})
	}
}

func (k *Clank) checkpoint(forced bool) {
	k.ckpt.Checkpoint(k.regs.RegSnapshot(), nil, func() {
		k.c.Checkpoints++
		if forced {
			k.c.ForcedCkpts++
		}
		if k.probe != nil {
			k.probe.OnCheckpointCommit(sim.CheckpointEvent{Cycle: k.clk.Now(), Kind: sim.CheckpointCommit, Forced: forced})
		}
	})
	k.tracker.Reset()
}

// Fork implements sim.System: forked NVM plus deep-copied tracker state
// and checkpoint-store position.
func (k *Clank) Fork(clk sim.Clock, regs sim.RegSource, c *metrics.Counters) sim.System {
	nvm := k.nvm.Fork()
	nvm.Attach(clk, c, nil)
	return &Clank{
		nvm:     nvm,
		ckpt:    k.ckpt.Fork(nvm),
		tracker: k.tracker.Clone(),
		clk:     clk,
		regs:    regs,
		c:       c,
	}
}

// EqualState implements sim.System: the checkpoint-store position, the
// tracker and NVM.
func (k *Clank) EqualState(o sim.System) bool {
	q, ok := o.(*Clank)
	return ok && k.ckpt.EqualState(q.ckpt) && k.tracker.Equal(q.tracker) && k.nvm.Equal(q.nvm)
}

// NotifySP implements sim.System (Clank has no stack tracking).
func (k *Clank) NotifySP(uint32) {}

// ForceCheckpoint implements sim.System.
func (k *Clank) ForceCheckpoint() { k.checkpoint(true) }

// PowerFailure implements sim.System: only the tracker state is volatile.
func (k *Clank) PowerFailure() { k.tracker.Reset() }

// Restore implements sim.System.
func (k *Clank) Restore() (sim.Snapshot, bool) { return k.ckpt.Restore() }

// Mem implements sim.System.
func (k *Clank) Mem() sim.MemReaderWriter { return k.nvm }

// Release implements sim.System.
func (k *Clank) Release() {
	k.nvm.Release()
	k.tracker.Release()
}
