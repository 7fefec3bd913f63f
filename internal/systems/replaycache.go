package systems

import (
	"nacho/internal/cache"
	"nacho/internal/checkpoint"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
	"nacho/internal/track"
)

// wbQueueDepth is the number of outstanding asynchronous write-backs the
// non-blocking cache supports (the paper notes ReplayCache's MSHR-based
// write-back queue; eight entries is the conventional MSHR count).
const wbQueueDepth = 8

// regionCapCycles bounds idempotent region length. ReplayCache's compiler
// cuts regions wherever a *static* WAR may exist; published idempotent-
// region compilers produce regions of tens of instructions, far shorter
// than the dynamic-WAR optimum a runtime oracle would find. The cap models
// that compile-time conservatism (see DESIGN.md).
const regionCapCycles = 100

// ReplayCache models Zeng et al.'s ReplayCache [73] as the paper's
// re-implementation describes it (Section 6.1.2): a volatile non-blocking
// data cache over NVM whose execution is partitioned into idempotent
// regions. All stores of a region persist to NVM by the region's end, via an
// asynchronous write-back queue that overlaps NVM writes with execution; no
// checkpoints are created during failure-free execution. Region boundaries
// are cut exactly where a store would break idempotency (a write to a
// read-dominated location) — the fixpoint the original compiler's region
// former converges to; see DESIGN.md's substitution table. Recovery uses
// JIT state saving: on the power-failure interrupt the remaining dirty lines
// and the registers are persisted on reserve energy, and execution resumes
// in place after reboot.
type ReplayCache struct {
	cache   *cache.Cache
	tracker *track.Tracker
	nvm     *mem.NVM
	ckpt    *checkpoint.Store

	queue       []uint64 // completion cycles of outstanding write-backs (sorted)
	markerAddr  uint32
	regionSeq   uint32
	regionStart uint64 // cycle the current region began

	clk sim.Clock
	c   *metrics.Counters
}

// NewReplayCache builds the system with the given cache geometry.
func NewReplayCache(nvm *mem.NVM, sizeBytes, ways int) (*ReplayCache, error) {
	ch, err := cache.New(sizeBytes, ways)
	if err != nil {
		return nil, err
	}
	ck := checkpoint.NewStore(nvm, 0)
	return &ReplayCache{
		cache:      ch,
		tracker:    track.New(),
		nvm:        nvm,
		ckpt:       ck,
		markerAddr: mem.CheckpointBase + ck.SizeBytes(),
	}, nil
}

// Name implements sim.System.
func (r *ReplayCache) Name() string { return "replaycache" }

// Attach implements sim.System: the checkpoint store wires the NVM.
func (r *ReplayCache) Attach(clk sim.Clock, regs sim.RegSource, c *metrics.Counters, p sim.Probe) {
	r.clk, r.c = clk, c
	r.ckpt.Attach(clk, regs, c, p)
}

// Load implements sim.System.
func (r *ReplayCache) Load(addr uint32, size int) uint32 {
	r.tracker.ObserveRead(addr, size)
	line := r.access(addr, true, size)
	r.clk.Advance(mem.HitCycles)
	return line.ReadData(addr, size)
}

// Store implements sim.System: a store that would violate the current
// region's idempotency — or that falls past the compiler's region-length
// bound — first closes the region (persisting its stores).
func (r *ReplayCache) Store(addr uint32, size int, val uint32) {
	if r.tracker.ReadDominated(addr, size) || r.clk.Now()-r.regionStart >= regionCapCycles {
		r.endRegion()
	}
	r.tracker.ObserveWrite(addr, size)
	line := r.access(addr, false, size)
	r.clk.Advance(mem.HitCycles)
	line.WriteData(addr, size, val)
	line.Dirty = true
}

func (r *ReplayCache) access(addr uint32, isRead bool, size int) *cache.Line {
	if line := r.cache.Probe(addr); line != nil {
		r.c.CacheHits++
		r.cache.Touch(line)
		return line
	}
	r.c.CacheMisses++
	line := r.cache.Victim(addr)
	if line.Valid && line.Dirty {
		// Non-blocking write-back: enqueue, no checkpoint ever needed —
		// region replay guarantees recovery.
		r.c.Evictions++
		victimAddr := line.Addr()
		r.enqueue(victimAddr, line.Data)
		r.ckpt.WriteBack(victimAddr, 4, sim.VerdictAsync)
	}
	r.cache.Install(line, addr)
	line.Dirty = false
	if isRead || size < cache.LineSize {
		line.Data = r.nvm.Read(addr&^3, 4)
	} else {
		line.Data = 0
	}
	return line
}

// enqueue issues an asynchronous NVM write. The value lands functionally at
// once (the queue holds it; reads are served from cache or the already-
// written space), while timing is modeled by completion times on a single
// NVM port: the CPU stalls only when all MSHR slots are busy.
func (r *ReplayCache) enqueue(addr, data uint32) {
	now := r.clk.Now()
	r.retire(now)
	if len(r.queue) >= wbQueueDepth {
		r.clk.Advance(r.queue[0] - now)
		r.retire(r.clk.Now())
	}
	start := r.clk.Now()
	if n := len(r.queue); n > 0 && r.queue[n-1] > start {
		start = r.queue[n-1]
	}
	r.queue = append(r.queue, start+mem.NVMCycles)
	r.nvm.WriteAsync(addr, 4, data)
}

// retire drops completed write-backs.
func (r *ReplayCache) retire(now uint64) {
	i := 0
	for i < len(r.queue) && r.queue[i] <= now {
		i++
	}
	r.queue = r.queue[i:]
}

// endRegion closes the current idempotent region: all dirty lines enter the
// write-back queue, the CPU waits for the queue to drain (store persistence
// ordering), and a one-word region marker is persisted.
func (r *ReplayCache) endRegion() {
	ls := r.cache.Lines()
	for i := range ls {
		if l := &ls[i]; l.Valid && l.Dirty {
			r.enqueue(l.Addr(), l.Data)
			l.Dirty = false
		}
	}
	if n := len(r.queue); n > 0 {
		if last := r.queue[n-1]; last > r.clk.Now() {
			r.clk.Advance(last - r.clk.Now())
		}
		r.queue = r.queue[:0]
	}
	r.regionSeq++
	r.nvm.Write(r.markerAddr, 4, r.regionSeq)
	r.tracker.Reset()
	r.regionStart = r.clk.Now()
	r.ckpt.RegionEnd()
}

// Fork implements sim.System: a forked checkpoint store (and with it
// forked NVM) plus deep-copied cache, tracker, write-back queue and region
// position.
func (r *ReplayCache) Fork(clk sim.Clock, regs sim.RegSource, c *metrics.Counters) sim.System {
	ckpt := r.ckpt.Fork(clk, regs, c)
	return &ReplayCache{
		cache:       r.cache.Clone(),
		tracker:     r.tracker.Clone(),
		nvm:         ckpt.NVM(),
		ckpt:        ckpt,
		queue:       append([]uint64(nil), r.queue...),
		markerAddr:  r.markerAddr,
		regionSeq:   r.regionSeq,
		regionStart: r.regionStart,
		clk:         clk,
		c:           c,
	}
}

// EqualState implements sim.System: the region position, the write-back
// queue, the cache, the tracker and the checkpoint store with its NVM. The
// region start and the queue's completion cycles are compared relative to
// each replica's clock: the time since the region began decides where the
// region is cut, and the time left on each write-back decides the stalls.
func (r *ReplayCache) EqualState(o sim.System) bool {
	q, ok := o.(*ReplayCache)
	if !ok || r.regionSeq != q.regionSeq || len(r.queue) != len(q.queue) {
		return false
	}
	now, qnow := r.clk.Now(), q.clk.Now()
	if now-r.regionStart != qnow-q.regionStart {
		return false
	}
	for i, done := range r.queue {
		if done-now != q.queue[i]-qnow {
			return false
		}
	}
	return r.cache.Equal(q.cache) && r.tracker.Equal(q.tracker) && r.ckpt.EqualState(q.ckpt)
}

// NotifySP implements sim.System (no stack tracking).
func (r *ReplayCache) NotifySP(uint32) {}

// ForceCheckpoint implements sim.System: ReplayCache has no periodic
// checkpoints; forward progress is a property of its region protocol, so a
// forced checkpoint maps to closing the current region.
func (r *ReplayCache) ForceCheckpoint() { r.endRegion() }

// PowerFailure implements sim.System: the JIT path — on the power-failure
// interrupt the remaining dirty lines, the queue, and the registers are
// persisted using reserve energy (the clock's failure window is already
// open, so these writes are charged but cannot recursively fail). A JIT
// save is NOT an interval boundary: execution resumes in place, so
// rollback-sensitive observers ignore its commit.
func (r *ReplayCache) PowerFailure() {
	ls := r.cache.Lines()
	for i := range ls {
		if l := &ls[i]; l.Valid && l.Dirty {
			r.nvm.Write(l.Addr(), 4, l.Data)
		}
	}
	r.queue = r.queue[:0]
	r.ckpt.Checkpoint(nil, sim.CheckpointEvent{Kind: sim.CheckpointJIT})
	r.cache.InvalidateAll()
	r.tracker.Reset()
}

// Restore implements sim.System: resume from the JIT-saved state.
func (r *ReplayCache) Restore() (sim.Snapshot, bool) {
	return r.ckpt.Restore()
}

// Mem implements sim.System.
func (r *ReplayCache) Mem() sim.MemReaderWriter { return r.nvm }

// Release implements sim.System: NVM, the cache and the tracker go back.
func (r *ReplayCache) Release() {
	r.ckpt.Release()
	r.cache.Release()
	r.tracker.Release()
}
