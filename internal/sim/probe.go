package sim

// This file defines the instrumentation seam of the simulator: a typed
// observer interface (Probe) that every event producer — the emulator, the
// NACHO controller, the NVM, the checkpoint store, and each comparison
// system — emits through. The correctness verifier, the per-interval
// statistics collector and the Perfetto exporter are Probe implementations;
// production counters stay directly updated for the no-probe fast path, and
// the live nacho_sim_* series sum those counters over executed runs, so they
// need no probe. Every event is a memory-system, checkpoint or power event,
// so both execution engines emit the same stream. Retired instructions are
// not events: the per-instruction trace recorder is fed by the emulator
// directly (see emu.Config.Trace), and the run's counters carry the
// instruction count.
//
// Emission contract: every producer holds a Probe field that is nil when no
// observer is attached, and guards each emission with a plain nil check
// (`if p != nil { p.OnX(...) }`). Event types are flat value structs, so an
// emission performs no allocation; a detached run costs one predictable
// branch per event site and no interface call.

// AccessClass says how a CPU data access was served.
type AccessClass uint8

// Access classes.
const (
	// AccessHit was served by the data cache (or, for the volatile
	// baseline, its SRAM main memory).
	AccessHit AccessClass = iota
	// AccessMiss went through a cache miss (fill and possible eviction
	// happened before the event was emitted).
	AccessMiss
	// AccessNVM went straight to NVM without cache involvement (Clank's
	// every access; a write-through store miss).
	AccessNVM
	// AccessMMIO hit the emulator's memory-mapped I/O window and bypassed
	// the memory system entirely.
	AccessMMIO
)

// String names the access class.
func (c AccessClass) String() string {
	switch c {
	case AccessHit:
		return "hit"
	case AccessMiss:
		return "miss"
	case AccessNVM:
		return "nvm"
	case AccessMMIO:
		return "mmio"
	}
	return "unknown"
}

// AccessEvent is one CPU data access, emitted by the serving system after
// all side effects (miss handling, evictions, checkpoints) completed —
// so an observer sees any checkpoint commit *before* the access that
// triggered it, matching rollback semantics: the in-flight access re-executes
// after a rollback to that checkpoint.
type AccessEvent struct {
	Cycle uint64
	Addr  uint32
	Size  int
	// Value is the loaded value (zero-extended) or the stored value (masked
	// to Size bytes).
	Value uint32
	Store bool
	Class AccessClass
}

// Verdict classifies a dirty line leaving the cache (or, for cacheless
// write-through paths, a store reaching NVM).
type Verdict uint8

// Write-back verdicts.
const (
	// VerdictSafe: write-dominated dirty eviction, written straight to NVM.
	VerdictSafe Verdict = iota
	// VerdictUnsafe: possibly read-dominated dirty eviction; a checkpoint
	// flushes it instead of a direct write-back.
	VerdictUnsafe
	// VerdictDroppedStack: dirty line in a dead stack frame, discarded.
	VerdictDroppedStack
	// VerdictWriteThrough: a store written through to NVM (Clank,
	// write-through cache).
	VerdictWriteThrough
	// VerdictAsync: dirty eviction queued on a non-blocking write-back port
	// (ReplayCache).
	VerdictAsync

	// NumVerdicts sizes verdict histograms.
	NumVerdicts = int(VerdictAsync) + 1
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictSafe:
		return "safe"
	case VerdictUnsafe:
		return "unsafe"
	case VerdictDroppedStack:
		return "dropped-stack"
	case VerdictWriteThrough:
		return "write-through"
	case VerdictAsync:
		return "async"
	}
	return "unknown"
}

// WriteBackEvent is a dirty line (or written-through store) leaving the
// volatile domain, with the system's safety verdict.
type WriteBackEvent struct {
	Cycle   uint64
	Addr    uint32
	Size    int
	Verdict Verdict
}

// CheckpointKind says what kind of persistence point a checkpoint event
// marks.
type CheckpointKind uint8

// Checkpoint kinds.
const (
	// CheckpointCommit is a committed register+dirty-line checkpoint — the
	// rollback target of the checkpoint/rollback systems.
	CheckpointCommit CheckpointKind = iota
	// CheckpointRegion is a completed ReplayCache idempotent region (all its
	// stores persisted; execution resumes here after a failure).
	CheckpointRegion
	// CheckpointJIT is ReplayCache's just-in-time state save on the
	// power-failure interrupt; it is not an interval boundary.
	CheckpointJIT
)

// String names the checkpoint kind.
func (k CheckpointKind) String() string {
	switch k {
	case CheckpointCommit:
		return "commit"
	case CheckpointRegion:
		return "region"
	case CheckpointJIT:
		return "jit"
	}
	return "unknown"
}

// CheckpointEvent describes a checkpoint. Begin events (OnCheckpointBegin,
// emitted by the checkpoint store when staging starts) carry only Cycle and
// Lines; commit events (OnCheckpointCommit, emitted at the instant the
// checkpoint becomes the reboot target) carry the full semantics.
type CheckpointEvent struct {
	Cycle uint64
	Kind  CheckpointKind
	Lines int // dirty cache lines persisted
	// Forced marks a periodic forward-progress checkpoint; Adaptive marks a
	// dirty-threshold policy checkpoint (Section 8 extension).
	Forced   bool
	Adaptive bool
	// Interval is the cycle distance to the previous commit, when the system
	// tracks it (IntervalValid; the NACHO controller does).
	Interval      uint64
	IntervalValid bool
}

// PowerEvent is an injected power failure, emitted before the system's
// volatile state is destroyed.
type PowerEvent struct {
	Cycle uint64
}

// RestoreEvent is a completed post-reboot restore. OK is false when no
// checkpoint was ever committed and execution restarted from program entry.
type RestoreEvent struct {
	Cycle  uint64 // cycle the restore completed
	Cycles uint64 // cycles the restore sequence took
	OK     bool
}

// NVMEvent is one charged (or asynchronously counted) NVM transfer. Raw
// loader/debug accesses do not emit.
type NVMEvent struct {
	Cycle uint64
	Addr  uint32
	Bytes int
	Write bool
}

// Probe observes the simulation event stream. Implementations must be cheap:
// hooks run synchronously on the simulation's hot path. Embed NopProbe to
// implement only the hooks of interest.
type Probe interface {
	OnAccess(AccessEvent)
	OnWriteBack(WriteBackEvent)
	OnCheckpointBegin(CheckpointEvent)
	OnCheckpointCommit(CheckpointEvent)
	OnPowerFailure(PowerEvent)
	OnRestore(RestoreEvent)
	OnNVM(NVMEvent)
}

// NopProbe implements every Probe hook as a no-op; embed it to write partial
// observers.
type NopProbe struct{}

// OnAccess implements Probe.
func (NopProbe) OnAccess(AccessEvent) {}

// OnWriteBack implements Probe.
func (NopProbe) OnWriteBack(WriteBackEvent) {}

// OnCheckpointBegin implements Probe.
func (NopProbe) OnCheckpointBegin(CheckpointEvent) {}

// OnCheckpointCommit implements Probe.
func (NopProbe) OnCheckpointCommit(CheckpointEvent) {}

// OnPowerFailure implements Probe.
func (NopProbe) OnPowerFailure(PowerEvent) {}

// OnRestore implements Probe.
func (NopProbe) OnRestore(RestoreEvent) {}

// OnNVM implements Probe.
func (NopProbe) OnNVM(NVMEvent) {}

// Probes fans every event out to each member in order.
type Probes []Probe

// Add appends a probe, ignoring nil.
func (ps *Probes) Add(p Probe) {
	if p != nil {
		*ps = append(*ps, p)
	}
}

// OnAccess implements Probe.
func (ps Probes) OnAccess(e AccessEvent) {
	for _, p := range ps {
		p.OnAccess(e)
	}
}

// OnWriteBack implements Probe.
func (ps Probes) OnWriteBack(e WriteBackEvent) {
	for _, p := range ps {
		p.OnWriteBack(e)
	}
}

// OnCheckpointBegin implements Probe.
func (ps Probes) OnCheckpointBegin(e CheckpointEvent) {
	for _, p := range ps {
		p.OnCheckpointBegin(e)
	}
}

// OnCheckpointCommit implements Probe.
func (ps Probes) OnCheckpointCommit(e CheckpointEvent) {
	for _, p := range ps {
		p.OnCheckpointCommit(e)
	}
}

// OnPowerFailure implements Probe.
func (ps Probes) OnPowerFailure(e PowerEvent) {
	for _, p := range ps {
		p.OnPowerFailure(e)
	}
}

// OnRestore implements Probe.
func (ps Probes) OnRestore(e RestoreEvent) {
	for _, p := range ps {
		p.OnRestore(e)
	}
}

// OnNVM implements Probe.
func (ps Probes) OnNVM(e NVMEvent) {
	for _, p := range ps {
		p.OnNVM(e)
	}
}

// Combine builds the cheapest probe observing all non-nil arguments: nil for
// none (the fast path stays fully detached), the probe itself for one, a
// Probes fan-out otherwise.
func Combine(list ...Probe) Probe {
	var ps Probes
	for _, p := range list {
		ps.Add(p)
	}
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	}
	return ps
}
