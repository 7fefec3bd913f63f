// Package core implements the paper's primary contribution: the NACHO data
// cache controller (Sections 3 and 4). The controller is a volatile
// write-back data cache in front of non-volatile main memory that doubles as
// the WAR detector: two extra bits per cache line — read-dominated (rd) and
// possible-WAR (pw) — classify every dirty write-back as *safe*
// (write-dominated, written straight to NVM) or *unsafe* (possibly
// read-dominated, requiring a checkpoint first). Stack tracking
// (Section 4.2.4) additionally drops dirty lines belonging to deallocated
// stack frames instead of writing them back.
//
// The same controller also realizes the paper's two NACHO ablation systems
// (Section 6.1.2): Naive NACHO (no WAR detector: every dirty eviction
// checkpoints; no stack tracking) and Oracle NACHO (a perfect exact-address
// WAR detector in place of the cache bits). Table 3's component breakdown
// (PW-only / ST-only) falls out of the same two switches.
package core

import (
	"nacho/internal/cache"
	"nacho/internal/checkpoint"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
	"nacho/internal/track"
)

// WARMode selects how the controller decides whether a dirty write-back is
// safe.
type WARMode int

// WAR detection modes.
const (
	// WARNone is Naive NACHO: every dirty eviction is treated as unsafe.
	WARNone WARMode = iota
	// WARCacheBits is NACHO: the pw/rd cache-line bits of Algorithm 1.
	WARCacheBits
	// WARExact is Oracle NACHO: a perfect exact-address dominance tracker.
	WARExact
)

// String names the WAR detection mode.
func (m WARMode) String() string {
	switch m {
	case WARNone:
		return "none"
	case WARCacheBits:
		return "cache-bits"
	case WARExact:
		return "exact"
	}
	return "unknown"
}

// Options configures a controller instance.
type Options struct {
	CacheSize     int // data capacity in bytes
	Ways          int // associativity
	WARMode       WARMode
	StackTracking bool

	// DirtyThreshold, when non-zero, enables the adaptive checkpointing
	// policy sketched in paper Section 8: the controller proactively
	// checkpoints as soon as more than DirtyThreshold lines are dirty,
	// bounding the energy any single future checkpoint can need.
	DirtyThreshold int

	// EnergyPrediction models a platform that can guarantee enough banked
	// energy to finish a checkpoint (Section 8, "Energy Prediction"):
	// checkpoints run single-buffered, halving their NVM writes. The
	// emulator defers power failures across such checkpoints, the same
	// guarantee the paper's hardware assumption provides.
	EnergyPrediction bool

	// TestInvertPW deliberately inverts the cache-bits write-back safety
	// check (a read-dominated line is treated as safe to evict and vice
	// versa). It exists only so the crash-consistency fuzzer can prove its
	// oracle catches a broken WAR protocol; no production Kind sets it.
	TestInvertPW bool
}

type accessType int

const (
	accessRead accessType = iota
	accessWrite
)

// Controller is the NACHO memory system; it implements sim.System.
type Controller struct {
	name  string
	opts  Options
	cache *cache.Cache
	nvm   *mem.NVM
	ckpt  *checkpoint.Store

	clk sim.Clock
	c   *metrics.Counters

	tracker    *track.Tracker // exact mode only
	sp         uint32
	spMin      uint32
	dirtyCount int // maintained only when DirtyThreshold > 0
}

// New builds a controller over the given NVM space. name is the system label
// used in experiment output.
func New(name string, nvm *mem.NVM, opts Options) (*Controller, error) {
	ch, err := cache.New(opts.CacheSize, opts.Ways)
	if err != nil {
		return nil, err
	}
	k := &Controller{
		name:  name,
		opts:  opts,
		cache: ch,
		nvm:   nvm,
		ckpt:  checkpoint.NewStore(nvm, ch.NumLines()),
		sp:    mem.StackTop,
		spMin: mem.StackTop,
	}
	if opts.WARMode == WARExact {
		k.tracker = track.New()
	}
	return k, nil
}

// Name implements sim.System.
func (k *Controller) Name() string { return k.name }

// Mem implements sim.System.
func (k *Controller) Mem() sim.MemReaderWriter { return k.nvm }

// Release implements sim.System: NVM, the cache and the exact-mode tracker
// go back.
func (k *Controller) Release() {
	k.ckpt.Release()
	k.cache.Release()
	if k.tracker != nil {
		k.tracker.Release()
	}
}

// Attach implements sim.System: the checkpoint store wires the NVM and
// seeds the boot checkpoint.
func (k *Controller) Attach(clk sim.Clock, regs sim.RegSource, c *metrics.Counters, p sim.Probe) {
	k.clk, k.c = clk, c
	k.ckpt.Attach(clk, regs, c, p)
}

// Fork implements sim.System: an independent controller over a fork of the
// checkpoint store (and with it a copy-on-write fork of the NVM space), with
// the cache, WAR tracker and stack bounds deep-copied and the replica wired
// to the forked machine's clock, registers, and counters. Probe-free by
// design.
func (k *Controller) Fork(clk sim.Clock, regs sim.RegSource, c *metrics.Counters) sim.System {
	ckpt := k.ckpt.Fork(clk, regs, c)
	f := &Controller{
		name:       k.name,
		opts:       k.opts,
		cache:      k.cache.Clone(),
		nvm:        ckpt.NVM(),
		ckpt:       ckpt,
		clk:        clk,
		c:          c,
		sp:         k.sp,
		spMin:      k.spMin,
		dirtyCount: k.dirtyCount,
	}
	if k.tracker != nil {
		f.tracker = k.tracker.Clone()
	}
	return f
}

// EqualState implements sim.System: the stack bounds, the dirty count, the
// cache, the exact-mode tracker and the checkpoint store with its NVM.
func (k *Controller) EqualState(o sim.System) bool {
	q, ok := o.(*Controller)
	if !ok || k.sp != q.sp || k.spMin != q.spMin || k.dirtyCount != q.dirtyCount ||
		!k.cache.Equal(q.cache) {
		return false
	}
	if k.tracker != nil && !k.tracker.Equal(q.tracker) {
		return false
	}
	return k.ckpt.EqualState(q.ckpt)
}

// Cache exposes the underlying cache for white-box tests.
func (k *Controller) Cache() *cache.Cache { return k.cache }

// Load implements sim.System.
func (k *Controller) Load(addr uint32, size int) uint32 {
	line := k.access(addr, accessRead, size)
	// Exact-mode tracking observes the access *after* the cache handled it:
	// if the miss checkpointed, the interval reset and the in-flight read
	// belongs to the new interval (it re-executes after a rollback to that
	// checkpoint).
	if k.tracker != nil {
		k.tracker.ObserveRead(addr, size)
	}
	k.clk.Advance(mem.HitCycles)
	return line.ReadData(addr, size)
}

// Store implements sim.System.
func (k *Controller) Store(addr uint32, size int, val uint32) {
	line := k.access(addr, accessWrite, size)
	if k.tracker != nil {
		k.tracker.ObserveWrite(addr, size)
	}
	k.clk.Advance(mem.HitCycles)
	adaptive := false
	if k.opts.DirtyThreshold > 0 && !line.Dirty {
		k.dirtyCount++
		adaptive = k.dirtyCount > k.opts.DirtyThreshold
	}
	line.WriteData(addr, size, val)
	line.Dirty = true
	if adaptive {
		// Adaptive policy: flush before the dirty set grows beyond the
		// configured energy budget. The dirty set (including this line)
		// persists with the checkpoint and the new interval starts clean.
		k.checkpoint(sim.CheckpointEvent{Adaptive: true})
	}
}

// access is Algorithm 1's MemoryAccess procedure.
func (k *Controller) access(addr uint32, t accessType, size int) *cache.Line {
	line := k.cache.Probe(addr)
	if line == nil {
		k.c.CacheMisses++
		return k.miss(addr, t, size)
	}
	k.c.CacheHits++
	if k.opts.WARMode == WARCacheBits && !line.PW && !line.RD && !line.Dirty {
		// First touch of this line since the last checkpoint.
		k.updateLine(line, addr, t, size)
	}
	k.cache.Touch(line)
	return line
}

// miss is Algorithm 1's CacheMiss procedure.
func (k *Controller) miss(addr uint32, t accessType, size int) *cache.Line {
	line := k.cache.Victim(addr)
	if line.Valid && line.Dirty {
		victimAddr := line.Addr()
		switch {
		case k.inUnusedStack(victimAddr):
			// Dead stack frame: discard without write-back. Only the dirty
			// bit clears — the line's rd must survive into updateLine's
			// was-read-dominated so the set's possible-WAR history is
			// preserved (dropping it would let a later write-miss to a
			// previously-read address in this set be misclassified as
			// write-dominated: a false negative).
			k.c.DroppedStackLines++
			line.Dirty = false
			k.noteClean()
			k.ckpt.WriteBack(victimAddr, 4, sim.VerdictDroppedStack)
		case k.unsafeWriteBack(line):
			// Read-dominated write-back: checkpoint flushes every dirty
			// line (including this one) and clears all WAR bits.
			k.c.UnsafeEvictions++
			k.ckpt.WriteBack(victimAddr, 4, sim.VerdictUnsafe)
			k.checkpoint(sim.CheckpointEvent{})
		default:
			// Write-dominated: safe to evict straight to NVM.
			k.c.SafeEvictions++
			k.c.Evictions++
			k.nvm.Write(victimAddr, 4, line.Data)
			line.Dirty = false
			k.noteClean()
			k.ckpt.WriteBack(victimAddr, 4, sim.VerdictSafe)
		}
	}
	if k.opts.WARMode == WARCacheBits {
		// Uses the victim's *old* rd as was-read-dominated, setting pw if a
		// read-dominated entry is being replaced (Section 4.2.2).
		k.updateLine(line, addr, t, size)
	}
	k.cache.Install(line, addr)
	line.Dirty = false
	// A read miss, or a write narrower than the line, fetches the line from
	// NVM (the fill the paper's size-4 rule in UpdateLine accounts for).
	if t == accessRead || size < cache.LineSize {
		line.Data = k.nvm.Read(addr&^3, 4)
	} else {
		line.Data = 0
	}
	return line
}

// updateLine is Algorithm 1's UpdateLine procedure (cache-bits mode only).
func (k *Controller) updateLine(line *cache.Line, addr uint32, t accessType, size int) {
	wasRD := line.RD
	if t == accessRead {
		line.RD = true
	} else {
		// Consider the pw bits of every line in the *destination* set
		// (Section 4.2.3: with n ways the read history may live in any of
		// the n lines).
		possibleWAR := false
		set := k.cache.Set(addr)
		for i := range set {
			if set[i].PW {
				possibleWAR = true
				break
			}
		}
		if !possibleWAR && size == cache.LineSize {
			line.RD = false // write-dominated
		} else {
			line.RD = true // conservative: sub-line write fills from NVM
		}
	}
	if wasRD {
		// Set last, so the current transition does not observe it.
		line.PW = true
	}
}

// unsafeWriteBack decides whether writing the dirty line back to NVM could be
// a WAR violation, per the configured detection mode.
func (k *Controller) unsafeWriteBack(line *cache.Line) bool {
	switch k.opts.WARMode {
	case WARCacheBits:
		if k.opts.TestInvertPW {
			return !line.RD
		}
		return line.RD
	case WARExact:
		return k.tracker.ReadDominated(line.Addr(), 4)
	default: // WARNone — Naive NACHO
		return true
	}
}

// noteClean maintains the adaptive policy's dirty-line count when a line
// becomes clean outside a checkpoint.
func (k *Controller) noteClean() {
	if k.opts.DirtyThreshold > 0 && k.dirtyCount > 0 {
		k.dirtyCount--
	}
}

// inUnusedStack is Algorithm 1's InUnusedStack: the address lies in stack
// memory deallocated since the last checkpoint (between sp_min and the
// current sp; the stack grows downward).
func (k *Controller) inUnusedStack(addr uint32) bool {
	return k.opts.StackTracking && addr >= k.spMin && addr < k.sp
}

// checkpoint is Algorithm 1's Checkpoint procedure: double-buffered flush of
// all live dirty lines plus the register file, then clear every WAR bit. ev
// names the cause (forced, adaptive, or neither for an unsafe eviction); the
// store counts and announces the commit. One pass over the cache gathers the
// dirty lines and clears the bits: a power failure before the commit
// invalidates the whole cache anyway.
func (k *Controller) checkpoint(ev sim.CheckpointEvent) {
	lines := k.ckpt.Staged()
	ls := k.cache.Lines()
	for i := range ls {
		l := &ls[i]
		if l.Valid && l.Dirty {
			if k.inUnusedStack(l.Addr()) {
				k.c.DroppedStackLines++
				k.ckpt.WriteBack(l.Addr(), 4, sim.VerdictDroppedStack)
			} else {
				lines = append(lines, checkpoint.Line{Addr: l.Addr(), Data: l.Data})
			}
		}
		l.Dirty, l.RD, l.PW = false, false, false
	}
	ev.IntervalValid = true
	if k.opts.EnergyPrediction {
		if er, ok := k.clk.(sim.EnergyReserve); ok {
			// The platform guarantees energy for the whole sequence; a
			// failure instant inside it fires right after completion.
			defer er.DeferFailures()()
		}
		k.ckpt.CheckpointSingleBuffered(lines, ev)
	} else {
		k.ckpt.Checkpoint(lines, ev)
	}
	if k.tracker != nil {
		k.tracker.Reset()
	}
	k.spMin = k.sp
	k.dirtyCount = 0
}

// ForceCheckpoint implements sim.System (periodic forward-progress
// checkpoints during intermittent runs).
func (k *Controller) ForceCheckpoint() { k.checkpoint(sim.CheckpointEvent{Forced: true}) }

// NotifySP implements sim.System: stack tracking keeps the minimum stack
// pointer seen since the last checkpoint.
func (k *Controller) NotifySP(sp uint32) {
	k.sp = sp
	if sp < k.spMin {
		k.spMin = sp
	}
}

// PowerFailure implements sim.System: all volatile state evaporates.
func (k *Controller) PowerFailure() {
	k.cache.InvalidateAll()
	if k.tracker != nil {
		k.tracker.Reset()
	}
	k.sp, k.spMin = mem.StackTop, mem.StackTop
	k.dirtyCount = 0
}

// Restore implements sim.System: recover the newest committed checkpoint.
func (k *Controller) Restore() (sim.Snapshot, bool) {
	snap, ok := k.ckpt.Restore()
	if !ok {
		return snap, false
	}
	// x2 (sp) is Regs[1] in the snapshot (Regs[0] is x1).
	k.sp = snap.Regs[1]
	k.spMin = k.sp
	return snap, true
}
