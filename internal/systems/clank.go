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

// Attach implements sim.System: the checkpoint store wires the NVM.
func (k *Clank) Attach(clk sim.Clock, regs sim.RegSource, c *metrics.Counters, p sim.Probe) {
	k.ckpt.Attach(clk, regs, c, p)
}

// Load implements sim.System: a direct NVM read.
func (k *Clank) Load(addr uint32, size int) uint32 {
	k.tracker.ObserveRead(addr, size)
	return k.nvm.Read(addr, size)
}

// Store implements sim.System: a direct NVM write, preceded by a register
// checkpoint when the target is read-dominated (the WAR case).
func (k *Clank) Store(addr uint32, size int, val uint32) {
	if k.tracker.ReadDominated(addr, size) {
		k.checkpoint(false)
	}
	k.tracker.ObserveWrite(addr, size)
	k.nvm.Write(addr, size, val)
	k.ckpt.WriteBack(addr, size, sim.VerdictWriteThrough)
}

// checkpoint persists the registers; the store counts and announces it.
func (k *Clank) checkpoint(forced bool) {
	k.ckpt.Checkpoint(nil, sim.CheckpointEvent{Forced: forced})
	k.tracker.Reset()
}

// Fork implements sim.System: a forked checkpoint store (and with it
// forked NVM) plus deep-copied tracker state.
func (k *Clank) Fork(clk sim.Clock, regs sim.RegSource, c *metrics.Counters) sim.System {
	ckpt := k.ckpt.Fork(clk, regs, c)
	return &Clank{nvm: ckpt.NVM(), ckpt: ckpt, tracker: k.tracker.Clone()}
}

// EqualState implements sim.System: the tracker and the checkpoint store
// with its NVM.
func (k *Clank) EqualState(o sim.System) bool {
	q, ok := o.(*Clank)
	return ok && k.tracker.Equal(q.tracker) && k.ckpt.EqualState(q.ckpt)
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
	k.ckpt.Release()
	k.tracker.Release()
}
