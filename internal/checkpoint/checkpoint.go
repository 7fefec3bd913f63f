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
package checkpoint

import (
	"fmt"

	"nacho/internal/mem"
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

// Store is a two-slot double-buffered checkpoint area in NVM.
type Store struct {
	nvm      *mem.NVM
	base     uint32
	maxLines int
	seq      uint32 // next sequence number to commit
	probe    sim.Probe
}

// NewStore lays out a checkpoint area at base for up to maxLines dirty lines
// per checkpoint (the cache capacity; 0 for register-only systems like
// Clank).
func NewStore(nvm *mem.NVM, base uint32, maxLines int) *Store {
	return &Store{nvm: nvm, base: base, maxLines: maxLines, seq: 1}
}

// Fork returns a store over the given forked NVM at the same layout and
// sequence position, probe-free. The checkpoint slots themselves live in NVM
// and traveled with the forked space; only the next-sequence counter and the
// layout are volatile-side state. Fork deliberately does not Init: the
// committed checkpoints are part of the state being replicated.
func (s *Store) Fork(nvm *mem.NVM) *Store {
	return &Store{nvm: nvm, base: s.base, maxLines: s.maxLines, seq: s.seq}
}

// EqualState reports whether two stores of one layout stand at the same
// sequence position. The slots themselves live in NVM, which the owning
// system compares.
func (s *Store) EqualState(o *Store) bool { return s.seq == o.seq }

// slotWords is the size of one slot in words.
func (s *Store) slotWords() uint32 { return offLines + 2*uint32(s.maxLines) }

func (s *Store) slotAddr(slot int, wordOff uint32) uint32 {
	return s.base + uint32(slot)*s.slotWords()*4 + wordOff*4
}

// SizeBytes is the NVM footprint of the whole checkpoint area.
func (s *Store) SizeBytes() uint32 { return 2 * s.slotWords() * 4 }

// Init writes the boot-time checkpoint (program entry, zeroed registers plus
// the given stack pointer) without charging simulation time: it models the
// state the device ships with. p (nil for none) observes checkpoint-begin
// events; commit events are emitted by the owning system's onCommit
// callback, which knows the checkpoint's cause, while the store only knows
// when staging starts. It must be called before execution.
func (s *Store) Init(snap sim.Snapshot, p sim.Probe) {
	s.probe = p
	for slot := 0; slot < 2; slot++ {
		s.nvm.WriteRaw(s.slotAddr(slot, offSeq), 4, 0)
	}
	words := snap.Words()
	s.nvm.WriteRaw(s.slotAddr(0, offNLines), 4, 0)
	for i, w := range words {
		s.nvm.WriteRaw(s.slotAddr(0, offSnap+uint32(i)), 4, w)
	}
	s.nvm.WriteRaw(s.slotAddr(0, offApplied), 4, 1)
	s.nvm.WriteRaw(s.slotAddr(0, offSeq), 4, 1)
	s.seq = 2
}

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

// Checkpoint persists the snapshot and lines double-buffered, charging every
// NVM word transfer on the attached clock. If a power failure strikes before
// the commit word is written, the store is untouched from the reader's
// perspective; if it strikes during the redo phase, Restore completes the
// redo. onCommit (optional) runs at the exact commit instant — the moment
// the checkpoint becomes the one a reboot will restore — which is where
// rollback-sensitive observers (the shadow-memory verifier) must move their
// rollback point. The caller must pass at most maxLines lines.
func (s *Store) Checkpoint(snap sim.Snapshot, lines []Line, onCommit func()) {
	if len(lines) > s.maxLines {
		panic(fmt.Sprintf("checkpoint: %d lines exceeds capacity %d", len(lines), s.maxLines))
	}
	if s.probe != nil {
		s.probe.OnCheckpointBegin(sim.CheckpointEvent{Cycle: s.nvm.Now(), Lines: len(lines)})
	}
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
	if onCommit != nil {
		onCommit()
	}

	// Redo phase: apply staged lines to their home addresses.
	for _, l := range lines {
		s.nvm.Write(l.Addr, 4, l.Data)
	}
	s.nvm.Write(s.slotAddr(slot, offApplied), 4, 1)
}

// CheckpointSingleBuffered persists the snapshot and lines WITHOUT double
// buffering: lines go straight to their home addresses and the registers
// overwrite the newest slot in place. This halves the NVM writes of a
// checkpoint (paper Section 8, "Energy Prediction") but is only safe when
// the platform guarantees enough energy to finish the sequence — a power
// failure in the middle leaves a torn checkpoint. The emulator models that
// guarantee by running these checkpoints under the energy reserve (failures
// deferred), mirroring the JIT hardware the paper describes.
func (s *Store) CheckpointSingleBuffered(snap sim.Snapshot, lines []Line, onCommit func()) {
	if len(lines) > s.maxLines {
		panic(fmt.Sprintf("checkpoint: %d lines exceeds capacity %d", len(lines), s.maxLines))
	}
	if s.probe != nil {
		s.probe.OnCheckpointBegin(sim.CheckpointEvent{Cycle: s.nvm.Now(), Lines: len(lines)})
	}
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
	if onCommit != nil {
		onCommit()
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
