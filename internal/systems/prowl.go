package systems

import (
	"fmt"
	"slices"

	"nacho/internal/cache"
	"nacho/internal/checkpoint"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
)

// PROWL models the consistency-aware replacement policy of Hoseinghorban et
// al. [28] as the paper characterizes it: a 2-way data cache (PROWL only
// publishes hash functions for two ways) that "avoids frequent checkpoints
// due to WARs by employing a custom cache replacement policy that delays the
// eviction of a dirty cache block". Each way is indexed by its own hash
// (skewed associativity); victim selection prefers invalid, then clean
// lines, and before surrendering a dirty line PROWL tries its relocation
// move (the "cache relocation strategy" the paper credits for dijkstra,
// Section 6.2.3): migrating one dirty candidate to its alternate way's slot
// when that slot is clean. PROWL has no WAR detector, so when it is finally
// forced to evict a dirty line it must create a full checkpoint (flush all
// dirty lines plus registers, double-buffered) to stay incorruptible. See
// DESIGN.md for the substitution note.
//
// Like cache.Cache, PROWL keeps the empty-cache invariant: while its LRU
// stamp is 0 (nothing touched since boot or the last power failure), every
// line is zero.
type PROWL struct {
	lines   *cache.Block    // both ways' lines, way 0 first
	ways    [2][]cache.Line // the two halves of lines
	numSets int
	stamp   uint64

	nvm  *mem.NVM
	ckpt *checkpoint.Store
	cost mem.CostModel

	clk   sim.Clock
	regs  sim.RegSource
	c     *metrics.Counters
	probe sim.Probe
}

// NewPROWL builds a 2-way skewed cache of sizeBytes data capacity.
func NewPROWL(nvm *mem.NVM, sizeBytes int, checkpointBase uint32, cost mem.CostModel) (*PROWL, error) {
	lines := sizeBytes / cache.LineSize
	if lines <= 0 || lines%2 != 0 {
		return nil, fmt.Errorf("prowl: size %dB not divisible into 2 ways of %dB lines", sizeBytes, cache.LineSize)
	}
	numSets := lines / 2
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("prowl: set count %d is not a power of two", numSets)
	}
	p := &PROWL{numSets: numSets, nvm: nvm, cost: cost,
		ckpt: checkpoint.NewStore(nvm, checkpointBase, lines)}
	p.setLines(cache.NewBlock(lines))
	return p, nil
}

// setLines makes b, drawn from the cache free list, the two ways' storage.
func (p *PROWL) setLines(b *cache.Block) {
	p.lines = b
	p.ways[0], p.ways[1] = b.Lines[:p.numSets], b.Lines[p.numSets:]
}

// Name implements sim.System.
func (p *PROWL) Name() string { return "prowl" }

// Attach implements sim.System.
func (p *PROWL) Attach(clk sim.Clock, regs sim.RegSource, c *metrics.Counters, probe sim.Probe) {
	p.clk, p.regs, p.c, p.probe = clk, regs, c, probe
	p.nvm.Attach(clk, c, probe)
	p.ckpt.Init(regs.RegSnapshot(), probe)
}

// index computes the per-way skewed hash of a line address.
func (p *PROWL) index(way int, addr uint32) int {
	la := addr >> 2
	if way == 0 {
		return int(la) & (p.numSets - 1)
	}
	// Second hash: a multiplicative scramble so conflicting lines in way 0
	// spread over different sets in way 1 (skewed associativity).
	return int((la*2654435761)>>16) & (p.numSets - 1)
}

func (p *PROWL) slot(way int, addr uint32) *cache.Line {
	return &p.ways[way][p.index(way, addr)]
}

func (p *PROWL) touch(l *cache.Line) {
	p.stamp++
	l.SetLRU(p.stamp)
}

// lookup returns the hit line or nil.
func (p *PROWL) lookup(addr uint32) *cache.Line {
	tag := addr >> 2
	for w := 0; w < 2; w++ {
		if l := p.slot(w, addr); l.Valid && l.Tag == tag {
			return l
		}
	}
	return nil
}

// victim implements PROWL's dirty-eviction-delaying policy over the two
// candidate slots: invalid first, then clean (older first), then the older
// dirty line.
func (p *PROWL) victim(addr uint32) *cache.Line {
	l0, l1 := p.slot(0, addr), p.slot(1, addr)
	switch {
	case !l0.Valid:
		return l0
	case !l1.Valid:
		return l1
	case !l0.Dirty && l1.Dirty:
		return l0
	case l0.Dirty && !l1.Dirty:
		return l1
	case l0.LRU() <= l1.LRU():
		return l0
	default:
		return l1
	}
}

// Load implements sim.System.
func (p *PROWL) Load(addr uint32, size int) uint32 {
	line := p.access(addr, true, size)
	p.clk.Advance(p.cost.HitCycles)
	return line.ReadData(addr, size)
}

// Store implements sim.System.
func (p *PROWL) Store(addr uint32, size int, val uint32) {
	line := p.access(addr, false, size)
	p.clk.Advance(p.cost.HitCycles)
	line.WriteData(addr, size, val)
	line.Dirty = true
}

func (p *PROWL) access(addr uint32, isRead bool, size int) *cache.Line {
	if line := p.lookup(addr); line != nil {
		p.c.CacheHits++
		p.touch(line)
		return line
	}
	p.c.CacheMisses++
	line := p.victim(addr)
	if line.Valid && line.Dirty {
		// Relocation: try to move one of the dirty candidates into its
		// alternate way's slot instead of evicting it.
		if moved := p.relocate(addr); moved != nil {
			line = moved
		} else {
			// No WAR detector: a forced dirty eviction requires a
			// checkpoint to stay incorruptible.
			p.c.UnsafeEvictions++
			if p.probe != nil {
				p.probe.OnWriteBack(sim.WriteBackEvent{Cycle: p.clk.Now(), Addr: line.Addr(), Size: 4, Verdict: sim.VerdictUnsafe})
			}
			p.checkpoint(false)
		}
	}
	line.Valid = true
	line.Tag = addr >> 2
	line.Dirty = false
	p.touch(line)
	if isRead || size < cache.LineSize {
		line.Data = p.nvm.Read(addr&^3, 4)
	} else {
		line.Data = 0
	}
	return line
}

// relocate tries to free a slot for addr by migrating one of its two dirty
// candidates to the candidate's OTHER way, if that destination is clean (or
// invalid). It returns the freed line, now invalid, or nil.
func (p *PROWL) relocate(addr uint32) *cache.Line {
	for w := 0; w < 2; w++ {
		cand := p.slot(w, addr)
		if !cand.Valid || !cand.Dirty {
			continue
		}
		dest := p.slot(1-w, cand.Addr())
		if dest == cand {
			continue
		}
		if dest.Valid && dest.Dirty {
			continue
		}
		// Destination is clean: dropping it loses nothing (NVM has it).
		*dest = *cand
		p.touch(dest)
		*cand = cache.Line{}
		return cand
	}
	return nil
}

func (p *PROWL) checkpoint(forced bool) {
	var lines []checkpoint.Line
	p.forEach(func(l *cache.Line) {
		if l.Valid && l.Dirty {
			lines = append(lines, checkpoint.Line{Addr: l.Addr(), Data: l.Data})
		}
	})
	p.ckpt.Checkpoint(p.regs.RegSnapshot(), lines, func() {
		p.c.Checkpoints++
		p.c.CheckpointLines += uint64(len(lines))
		if n := uint64(len(lines)); n > p.c.MaxCheckpointLines {
			p.c.MaxCheckpointLines = n
		}
		if forced {
			p.c.ForcedCkpts++
		}
		if p.probe != nil {
			p.probe.OnCheckpointCommit(sim.CheckpointEvent{Cycle: p.clk.Now(), Kind: sim.CheckpointCommit, Lines: len(lines), Forced: forced})
		}
	})
	p.forEach(func(l *cache.Line) { l.Dirty = false })
}

func (p *PROWL) forEach(f func(*cache.Line)) {
	for w := 0; w < 2; w++ {
		for i := range p.ways[w] {
			f(&p.ways[w][i])
		}
	}
}

// Fork implements sim.System: forked NVM plus deep-copied way arrays, LRU
// stamp, and checkpoint-store position.
func (p *PROWL) Fork(clk sim.Clock, regs sim.RegSource, c *metrics.Counters) sim.System {
	nvm := p.nvm.Fork()
	nvm.Attach(clk, c, nil)
	f := &PROWL{
		numSets: p.numSets,
		stamp:   p.stamp,
		nvm:     nvm,
		ckpt:    p.ckpt.Fork(nvm),
		cost:    p.cost,
		clk:     clk,
		regs:    regs,
		c:       c,
	}
	f.setLines(p.lines.Clone())
	return f
}

// EqualState implements sim.System: the LRU stamp, the checkpoint-store
// position, both way arrays and NVM. Two empty caches (stamp 0) are equal
// without a scan.
func (p *PROWL) EqualState(o sim.System) bool {
	q, ok := o.(*PROWL)
	return ok && p.stamp == q.stamp && p.ckpt.EqualState(q.ckpt) &&
		(p.stamp == 0 || slices.Equal(p.lines.Lines, q.lines.Lines)) &&
		p.nvm.Equal(q.nvm)
}

// NotifySP implements sim.System (no stack tracking in PROWL).
func (p *PROWL) NotifySP(uint32) {}

// ForceCheckpoint implements sim.System.
func (p *PROWL) ForceCheckpoint() { p.checkpoint(true) }

// PowerFailure implements sim.System. An empty cache (stamp 0) has nothing
// to clear.
func (p *PROWL) PowerFailure() {
	if p.stamp == 0 {
		return
	}
	clear(p.lines.Lines)
	p.stamp = 0
}

// Restore implements sim.System.
func (p *PROWL) Restore() (sim.Snapshot, bool) {
	return p.ckpt.Restore()
}

// Mem implements sim.System.
func (p *PROWL) Mem() sim.MemReaderWriter { return p.nvm }

// Release implements sim.System: NVM and the way arrays go back. PROWL
// tracks nothing.
func (p *PROWL) Release() {
	p.nvm.Release()
	p.lines.Release()
	p.lines, p.ways = nil, [2][]cache.Line{}
}
