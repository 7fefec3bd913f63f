// Package checkpoint implements the double-buffered checkpoint store in
// non-volatile memory (paper Sections 4.1 and 6.1.2: every compared system
// uses the same double-buffered mechanism, which is what makes them
// incorruptible).
//
// A checkpoint consists of the processor snapshot (x1..x31 + pc) and the
// dirty cache lines being persisted. Two NVM slots alternate; a checkpoint is
// staged entirely in the inactive slot and becomes visible only when its
// sequence word — the commit point — is written. Staged line data is then
// applied to its home NVM addresses (the redo phase); a reboot that finds a
// committed-but-unapplied checkpoint replays the redo log first. A power
// failure at *any* cycle therefore leaves either the previous or the new
// checkpoint fully intact, never a mixture.
//
// The store is the persistent half of every NVM-backed system. It owns the
// NVM's wiring (Attach, Fork, EqualState, Release), takes the registers
// from the run's RegSource, and announces what its system persists: each
// checkpoint at its commit word, where it also counts it, each write-back
// verdict, and each ReplayCache region end, which it also counts. The
// systems keep no probe of their own.
package checkpoint

import (
	"fmt"

	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
)

// Line is one dirty cache line persisted by a checkpoint.
type Line struct {
	Addr uint32
	Data uint32
}

// Slot word-offsets within a checkpoint slot.
const (
	offSeq     = 0 // sequence number; 0 = never written; commit point
	offApplied = 1 // 1 once the redo log has been applied to home addresses
	offNLines  = 2
	offSnap    = 3                           // 32 snapshot words
	offLines   = offSnap + sim.SnapshotWords // (addr,data) pairs
)

// Store is a two-slot double-buffered checkpoint area in NVM, together with
// the NVM it lives in. It reads the time from the NVM's clock.
type Store struct {
	nvm      *mem.NVM
	maxLines int
	base     uint32
	seq      uint32 // next sequence number to commit

	regs       sim.RegSource
	c          *metrics.Counters
	probe      sim.Probe
	lastCommit uint64 // cycle of the previous commit; feeds only IntervalHist
	staged     []Line // Staged's buffer, kept at the largest checkpoint's size
}

// NewStore lays out a checkpoint area at base in nvm for up to maxLines
// dirty lines per checkpoint (the cache capacity; 0 for register-only
// systems like Clank).
func NewStore(nvm *mem.NVM, base uint32, maxLines int) *Store {
	return &Store{nvm: nvm, base: base, maxLines: maxLines, seq: 1}
}

// Attach wires the store and its NVM to the run's clock, register source,
// counters and observer p (nil for none), and writes the boot checkpoint
// (program entry, the registers regs holds now) without charging simulation
// time: it models the state the device ships with. It must be called before
// execution.
func (s *Store) Attach(clk sim.Clock, regs sim.RegSource, c *metrics.Counters, p sim.Probe) {
	s.regs, s.c, s.probe = regs, c, p
	s.nvm.Attach(clk, c, p)
	for slot := 0; slot < 2; slot++ {
		s.nvm.WriteRaw(s.slotAddr(slot, offSeq), 4, 0)
	}
	s.nvm.WriteRaw(s.slotAddr(0, offNLines), 4, 0)
	for i, w := range regs.RegSnapshot().Words() {
		s.nvm.WriteRaw(s.slotAddr(0, offSnap+uint32(i)), 4, w)
	}
	s.nvm.WriteRaw(s.slotAddr(0, offApplied), 4, 1)
	s.nvm.WriteRaw(s.slotAddr(0, offSeq), 4, 1)
	s.seq = 2
}

// Fork returns a store over a copy-on-write fork of the NVM at the same
// layout, sequence position and last commit, wired to the forked machine's
// clock, register source and counters, probe-free. The checkpoint slots
// themselves live in NVM and travel with the forked space. Fork does not
// write a boot checkpoint: the committed checkpoints are part of the state
// being replicated.
func (s *Store) Fork(clk sim.Clock, regs sim.RegSource, c *metrics.Counters) *Store {
	nvm := s.nvm.Fork()
	nvm.Attach(clk, c, nil)
	return &Store{nvm: nvm, base: s.base, maxLines: s.maxLines, seq: s.seq,
		regs: regs, c: c, lastCommit: s.lastCommit}
}

// EqualState reports whether two stores of one layout stand at the same
// sequence position over equal NVM. The last commit is left out: it only
// feeds the IntervalHist counters, never a decision.
func (s *Store) EqualState(o *Store) bool { return s.seq == o.seq && s.nvm.Equal(o.nvm) }

// NVM returns the memory the store lives in, which is also its system's
// main memory.
func (s *Store) NVM() *mem.NVM { return s.nvm }

// Release gives the NVM back once the run is over.
func (s *Store) Release() { s.nvm.Release() }

// slotWords is the size of one slot in words.
func (s *Store) slotWords() uint32 { return offLines + 2*uint32(s.maxLines) }

func (s *Store) slotAddr(slot int, wordOff uint32) uint32 {
	return s.base + uint32(slot)*s.slotWords()*4 + wordOff*4
}

// SizeBytes is the NVM footprint of the whole checkpoint area.
func (s *Store) SizeBytes() uint32 { return 2 * s.slotWords() * 4 }

// inactiveSlot returns the slot to stage the next checkpoint into: the one
// NOT holding the newest committed checkpoint.
func (s *Store) inactiveSlot() int {
	s0 := s.nvm.ReadRaw(s.slotAddr(0, offSeq), 4)
	s1 := s.nvm.ReadRaw(s.slotAddr(1, offSeq), 4)
	if s0 > s1 {
		return 1
	}
	return 0
}

// Staged returns an empty line buffer to gather a checkpoint's dirty lines
// into. Checkpoint takes the buffer back, so it grows to the largest
// checkpoint once and is reused after that.
func (s *Store) Staged() []Line { return s.staged[:0] }

// begin checks lines against the capacity, keeps their buffer for the next
// Staged, announces that staging starts and returns the registers to
// persist.
func (s *Store) begin(lines []Line) sim.Snapshot {
	if len(lines) > s.maxLines {
		panic(fmt.Sprintf("checkpoint: %d lines exceeds capacity %d", len(lines), s.maxLines))
	}
	s.staged = lines[:0]
	if s.probe != nil {
		s.probe.OnCheckpointBegin(sim.CheckpointEvent{Cycle: s.nvm.Now(), Lines: len(lines)})
	}
	return s.regs.RegSnapshot()
}

// commit counts and announces the checkpoint whose commit word just landed:
// from this instant on a reboot restores it, even if a power failure cuts
// the redo phase short. ev carries the cause (Kind, Forced, Adaptive, and
// IntervalValid for systems that histogram commit intervals); commit stamps
// its cycle, line count and interval. This is where rollback-sensitive
// observers (the shadow-memory verifier) move their rollback point.
func (s *Store) commit(lines int, ev sim.CheckpointEvent) {
	now := s.nvm.Now()
	ev.Cycle, ev.Lines = now, lines
	s.c.Checkpoints++
	s.c.CheckpointLines += uint64(lines)
	s.c.MaxCheckpointLines = max(s.c.MaxCheckpointLines, uint64(lines))
	if ev.Forced {
		s.c.ForcedCkpts++
	}
	if ev.Adaptive {
		s.c.AdaptiveCkpts++
	}
	if ev.IntervalValid {
		ev.Interval = now - s.lastCommit
		s.c.RecordInterval(ev.Interval)
	}
	s.lastCommit = now
	if s.probe != nil {
		s.probe.OnCheckpointCommit(ev)
	}
}

// Checkpoint persists the registers and lines double-buffered, charging
// every NVM word transfer on the attached clock, and counts and announces
// the checkpoint at its commit word (see commit). If a power failure
// strikes before the commit word is written, the store is untouched from
// the reader's perspective and nothing is counted; if it strikes during the
// redo phase, Restore completes the redo. lines holds at most maxLines
// lines; its buffer becomes the next Staged.
func (s *Store) Checkpoint(lines []Line, ev sim.CheckpointEvent) {
	snap := s.begin(lines)
	slot := s.inactiveSlot()

	// Stage phase: invisible until commit.
	s.nvm.Write(s.slotAddr(slot, offApplied), 4, 0)
	s.nvm.Write(s.slotAddr(slot, offNLines), 4, uint32(len(lines)))
	for i, w := range snap.Words() {
		s.nvm.Write(s.slotAddr(slot, offSnap+uint32(i)), 4, w)
	}
	for i, l := range lines {
		s.nvm.Write(s.slotAddr(slot, offLines+2*uint32(i)), 4, l.Addr)
		s.nvm.Write(s.slotAddr(slot, offLines+2*uint32(i)+1), 4, l.Data)
	}

	// Commit point: a single word write.
	s.nvm.Write(s.slotAddr(slot, offSeq), 4, s.seq)
	s.seq++
	s.commit(len(lines), ev)

	// Redo phase: apply staged lines to their home addresses.
	for _, l := range lines {
		s.nvm.Write(l.Addr, 4, l.Data)
	}
	s.nvm.Write(s.slotAddr(slot, offApplied), 4, 1)
}

// CheckpointSingleBuffered persists the registers and lines WITHOUT double
// buffering, and counts and announces the checkpoint at its sequence word
// like Checkpoint: lines go straight to their home addresses and the
// registers overwrite the newest slot in place. This halves the NVM writes
// of a checkpoint (paper Section 8, "Energy Prediction") but is only safe
// when the platform guarantees enough energy to finish the sequence — a
// power failure in the middle leaves a torn checkpoint. The emulator models
// that guarantee by running these checkpoints under the energy reserve
// (failures deferred), mirroring the JIT hardware the paper describes.
func (s *Store) CheckpointSingleBuffered(lines []Line, ev sim.CheckpointEvent) {
	snap := s.begin(lines)
	slot := 1 - s.inactiveSlot() // overwrite the active slot in place
	for _, l := range lines {
		s.nvm.Write(l.Addr, 4, l.Data)
	}
	s.nvm.Write(s.slotAddr(slot, offNLines), 4, 0)
	for i, w := range snap.Words() {
		s.nvm.Write(s.slotAddr(slot, offSnap+uint32(i)), 4, w)
	}
	s.nvm.Write(s.slotAddr(slot, offApplied), 4, 1)
	s.nvm.Write(s.slotAddr(slot, offSeq), 4, s.seq)
	s.seq++
	s.commit(len(lines), ev)
}

// WriteBack announces a dirty line (or a written-through store) of size
// bytes at addr leaving the volatile domain with its system's verdict. The
// system counts the verdict itself, before the action it names, so the
// count stands even when a power failure cuts the action short. It inlines
// to a nil check on the unobserved path, where Clank and WriteThrough call
// it on every store.
func (s *Store) WriteBack(addr uint32, size int, v sim.Verdict) {
	if s.probe != nil {
		s.announceWriteBack(addr, size, v)
	}
}

func (s *Store) announceWriteBack(addr uint32, size int, v sim.Verdict) {
	s.probe.OnWriteBack(sim.WriteBackEvent{Cycle: s.nvm.Now(), Addr: addr, Size: size, Verdict: v})
}

// RegionEnd counts and announces the end of a ReplayCache idempotent
// region: a persistence point that writes no checkpoint, since the region's
// stores already reached NVM.
func (s *Store) RegionEnd() {
	s.c.Regions++
	if s.probe != nil {
		s.probe.OnCheckpointCommit(sim.CheckpointEvent{Cycle: s.nvm.Now(), Kind: sim.CheckpointRegion})
	}
}

// Restore finds the newest committed checkpoint, finishes its redo log if the
// previous run died mid-apply, and returns its processor snapshot. All NVM
// traffic is charged. ok is false when no checkpoint was ever committed.
func (s *Store) Restore() (snap sim.Snapshot, ok bool) {
	s0 := s.nvm.Read(s.slotAddr(0, offSeq), 4)
	s1 := s.nvm.Read(s.slotAddr(1, offSeq), 4)
	if s0 == 0 && s1 == 0 {
		return sim.Snapshot{}, false
	}
	slot := 0
	newest := s0
	if s1 > s0 {
		slot, newest = 1, s1
	}
	s.seq = newest + 1

	if s.nvm.Read(s.slotAddr(slot, offApplied), 4) == 0 {
		n := s.nvm.Read(s.slotAddr(slot, offNLines), 4)
		for i := uint32(0); i < n; i++ {
			addr := s.nvm.Read(s.slotAddr(slot, offLines+2*i), 4)
			data := s.nvm.Read(s.slotAddr(slot, offLines+2*i+1), 4)
			s.nvm.Write(addr, 4, data)
		}
		s.nvm.Write(s.slotAddr(slot, offApplied), 4, 1)
	}

	var words [sim.SnapshotWords]uint32
	for i := range words {
		words[i] = s.nvm.Read(s.slotAddr(slot, offSnap+uint32(i)), 4)
	}
	return sim.SnapshotFromWords(words), true
}
