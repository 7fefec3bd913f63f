// Package sim defines the contracts that tie the CPU emulator to the memory
// systems under evaluation: the simulation clock (which is also the power-
// failure authority), the register-snapshot source used by checkpointing, and
// the System interface implemented by NACHO and every baseline.
package sim

import "nacho/internal/metrics"

// Snapshot is the volatile processor state persisted by a checkpoint:
// the 31 writable general-purpose registers (x1..x31) and the program
// counter. Together with non-volatile main memory this is the complete
// architectural state of the machine (paper Section 1: NVM main memory
// reduces the volatile state "only to the registers").
type Snapshot struct {
	Regs [31]uint32 // x1..x31; x0 is hardwired zero
	PC   uint32
}

// SnapshotWords is the number of 32-bit words in a serialized Snapshot.
const SnapshotWords = 32

// Words serializes the snapshot for NVM storage.
func (s Snapshot) Words() [SnapshotWords]uint32 {
	var w [SnapshotWords]uint32
	copy(w[:31], s.Regs[:])
	w[31] = s.PC
	return w
}

// SnapshotFromWords deserializes a snapshot read back from NVM.
func SnapshotFromWords(w [SnapshotWords]uint32) Snapshot {
	var s Snapshot
	copy(s.Regs[:], w[:31])
	s.PC = w[31]
	return s
}

// Clock is the simulation time authority. All cycle costs — instruction
// retirement, cache hits, NVM transfers, checkpoint writes — are charged by
// calling Advance. When the configured power schedule places a failure inside
// the advanced interval, Advance accounts time up to the failure instant and
// panics with PowerFail; the emulator recovers it at its top level and runs
// the reboot path. This models a power failure striking at any cycle,
// including mid-checkpoint, which is what the incorruptibility property tests
// exercise.
type Clock interface {
	// Now returns the current cycle.
	Now() uint64
	// Advance charges n cycles and panics with PowerFail if a failure occurs
	// within them.
	Advance(n uint64)
}

// PowerFail is the panic sentinel raised by Clock.Advance at the instant of a
// power failure. Only the emulator's run loop recovers it.
type PowerFail struct{}

// EnergyReserve is implemented by clocks that can model the paper's
// Section 8 energy-prediction hardware: a platform that guarantees enough
// banked energy to finish a critical sequence. DeferFailures opens the
// guarantee window; the returned release closes it and, if the scheduled
// failure instant passed inside the window, raises PowerFail immediately —
// the reserve is spent the moment the sequence completes.
type EnergyReserve interface {
	DeferFailures() (release func())
}

// RegSource provides the live register state for checkpoint creation. A
// checkpoint can be demanded in the middle of a load or store (an unsafe
// eviction); at that point the destination register of the in-flight
// instruction has not yet been written, so a live snapshot plus the current
// instruction's PC is exactly the state to resume from.
type RegSource interface {
	RegSnapshot() Snapshot
}

// System is a complete memory system supporting intermittent execution: the
// CPU issues every data access through it, and the emulator drives its
// checkpoint/restore lifecycle. Implementations charge their own cycle costs
// on the attached Clock.
type System interface {
	// Name identifies the system in experiment output ("nacho", "clank", ...).
	Name() string

	// Attach wires the system to the CPU's clock and register source, to
	// the run's counters, and to the run's event observer p (nil for none),
	// which the system hands to every component it owns that emits (NVM,
	// checkpoint store). It must be called once before execution; the
	// no-probe path must stay emission-free.
	Attach(clk Clock, regs RegSource, c *metrics.Counters, p Probe)

	// Fork returns an independent replica of the system's complete state —
	// volatile (cache lines, trackers, stack bounds) deep-copied,
	// non-volatile memory forked copy-on-write — wired to the forked
	// machine's clock, register source, and counters (the snapshot-fork
	// exploration mode). Unlike Attach, Fork must not reinitialize anything
	// (in particular not the checkpoint store, whose sequence position is
	// part of the state being replicated), and the replica comes up
	// probe-free: forks run on the emission-free path.
	Fork(clk Clock, regs RegSource, c *metrics.Counters) System

	// EqualState reports whether o, a replica of the same system (a fork of
	// a common ancestor), holds the same state: NVM and every volatile field
	// that can steer the rest of a run. A field that holds a cycle is
	// compared relative to each replica's own clock, so two replicas at
	// different cycles are equal when their futures differ only by that
	// offset. Counters and fields that feed only counters are not state.
	EqualState(o System) bool

	// Load performs a data read of size bytes (1, 2 or 4, naturally aligned).
	Load(addr uint32, size int) uint32
	// Store performs a data write of size bytes (1, 2 or 4, naturally aligned).
	Store(addr uint32, size int, val uint32)

	// NotifySP reports stack-pointer updates for stack tracking
	// (paper Section 4.2.4). Systems without stack tracking ignore it.
	// Implementations only record sp: they must not advance the clock or
	// read the machine, because the AOT engine calls NotifySP with its
	// cycle, instruction and pc mirrors uncommitted.
	NotifySP(sp uint32)

	// ForceCheckpoint creates a checkpoint now (used for the periodic
	// forward-progress checkpoints of intermittent runs, Section 6.2.4).
	ForceCheckpoint()

	// PowerFailure destroys all volatile state (cache contents, trackers).
	// Non-volatile state — main memory and committed checkpoints — survives.
	PowerFailure()

	// Restore recovers the newest committed checkpoint after a reboot,
	// charging the NVM read cost, and returns the processor snapshot to
	// resume from. ok is false when no checkpoint was ever committed (the
	// caller then restarts from the program entry).
	Restore() (s Snapshot, ok bool)

	// Mem returns the backing non-volatile (or, for the volatile baseline,
	// SRAM) data space for program loading and final-state inspection.
	Mem() MemReaderWriter

	// Release gives the system's memory space, cache storage and trackers
	// back to their free lists once the run is over and nothing will read
	// the system again. Whoever ends the run releases: the harness for every
	// run whose system it discards, the caller of harness.RunImageSys for
	// the system it is handed, and the snapshot explorer for every fork it
	// is done with. The system must not be used afterwards: a released
	// cache has no storage, so a use panics.
	Release()
}

// MemReaderWriter is the raw, cost-free debug/loader view of a memory space.
// ReadBytes and FirstDiff read and compare whole spans, a page at a time;
// FirstDiff returns the offset of the first byte differing from want, or -1.
type MemReaderWriter interface {
	ReadRaw(addr uint32, size int) uint32
	WriteRaw(addr uint32, size int, val uint32)
	ReadBytes(addr uint32, dst []byte)
	FirstDiff(addr uint32, want []byte) int
}
