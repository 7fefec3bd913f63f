// Package verify implements the emulator's two safety measures from paper
// Section 5.1:
//
//  1. Shadow memory: every CPU data access is duplicated into an ideal flat
//     memory; the value a load hands the CPU must equal the shadow's. The
//     emulator reports each access as the CPU sees it (CPURead, CPUWrite;
//     see emu.Config.Verifier), after the system under test has served it.
//     The shadow keeps a word-granular undo journal since the last
//     checkpoint so that it can be rolled back when a power failure rewinds
//     the machine to the last committed checkpoint — re-execution then
//     replays against the same shadow state.
//
//  2. WAR detection: an exact byte-granular dominance tracker observes the
//     CPU access stream; any physical NVM write-back to a read-dominated
//     location (outside a checkpoint) is an idempotency violation, because a
//     power failure after it would make re-execution read the new value.
//
// The package reports problems as a recorded Violation rather than
// panicking, so tests can assert exact failure modes.
package verify

import (
	"fmt"

	"nacho/internal/mem"
	"nacho/internal/sim"
	"nacho/internal/track"
)

// Kind classifies a detected violation.
type Kind int

// Violation kinds.
const (
	ShadowMismatch Kind = iota // load returned a value different from shadow
	WARViolation               // NVM write-back to a read-dominated address
)

// String names the violation kind.
func (k Kind) String() string {
	switch k {
	case ShadowMismatch:
		return "shadow-mismatch"
	case WARViolation:
		return "war-violation"
	}
	return "unknown"
}

// Violation is one detected correctness failure. It is an error, so a
// caller handed the verifier's error (Err, possibly wrapped by the harness)
// recovers the first violation with errors.As.
type Violation struct {
	Kind Kind
	Addr uint32
	Size int
	Got  uint32 // value the system returned (shadow mismatches)
	Want uint32 // value the shadow holds
}

// Error renders the violation with its address and values.
func (v Violation) Error() string {
	if v.Kind == ShadowMismatch {
		return fmt.Sprintf("%v at 0x%08x size %d: got 0x%x, want 0x%x", v.Kind, v.Addr, v.Size, v.Got, v.Want)
	}
	return fmt.Sprintf("%v: write-back to read-dominated 0x%08x size %d", v.Kind, v.Addr, v.Size)
}

// Config selects per-system verification behaviour.
type Config struct {
	// RollbackOnFailure rolls the shadow back to the last interval boundary
	// when power fails — the behaviour of checkpoint/rollback systems (NACHO,
	// Clank, PROWL). JIT-flush systems (ReplayCache) resume at the failure
	// point, so their shadow must not rewind.
	RollbackOnFailure bool
	// CheckWAR enables the exact write-back dominance check. It applies to
	// rollback systems; ReplayCache's region semantics make mid-region
	// write-backs legal, so it runs with CheckWAR disabled and relies on the
	// shadow check.
	CheckWAR bool
}

// Verifier implements the safety checks. It takes its input from two
// places: the emulator hands it every CPU data access (emu.Config.Verifier
// calls CPURead and CPUWrite, which feed the shadow memory and the
// dominance tracker), and as a sim.Probe attached through emu.Config.Probe
// it consumes the event stream — write-back events feed the WAR check,
// checkpoint commits move the rollback point, power failures rewind the
// shadow. A nil *Verifier is valid and disables all checking.
type Verifier struct {
	sim.NopProbe
	cfg    Config
	shadow *mem.Space
	// The undo journal: journalled marks (non-zero) each word written since
	// the last boundary, and undo holds those words' pre-images. A word's
	// first write in an interval saves all four bytes, which are then still
	// the boundary's, so rolling the words back restores the boundary state.
	journalled track.Words
	undo       []undoWord
	tracker    *track.Tracker
	// first is the first violation detected, violations how many were.
	first      Violation
	violations int
}

// undoWord is the pre-image of one word at the last boundary.
type undoWord struct {
	addr uint32
	old  uint32
}

// New builds a verifier whose shadow starts as a copy-on-write fork of the
// loaded program image (the same initial state the system's NVM holds).
func New(initial *mem.Space, cfg Config) *Verifier {
	return &Verifier{
		cfg:     cfg,
		shadow:  initial.Fork(),
		tracker: track.New(),
	}
}

func (v *Verifier) record(viol Violation) {
	if v.violations == 0 {
		v.first = viol
	}
	v.violations++
}

// CPURead checks a load's result against the shadow and feeds the dominance
// tracker.
func (v *Verifier) CPURead(addr uint32, size int, got uint32) {
	if v == nil {
		return
	}
	v.tracker.ObserveRead(addr, size)
	want := v.shadow.Read(addr, size)
	if got != want {
		v.record(Violation{Kind: ShadowMismatch, Addr: addr, Size: size, Got: got, Want: want})
	}
}

// CPUWrite duplicates a store into the shadow, journalling pre-images. The
// store is naturally aligned, so it falls inside one word.
func (v *Verifier) CPUWrite(addr uint32, size int, val uint32) {
	if v == nil {
		return
	}
	v.tracker.ObserveWrite(addr, size)
	if j := v.journalled.Ref(addr); *j == 0 {
		*j = 1
		w := addr &^ 3
		v.undo = append(v.undo, undoWord{addr: w, old: v.shadow.Read(w, 4)})
	}
	v.shadow.Write(addr, size, val)
}

// resetInterval empties the journal and the dominance tracker: the
// rollback point moves to now.
func (v *Verifier) resetInterval() {
	v.journalled.Reset()
	v.undo = v.undo[:0]
	v.tracker.Reset()
}

// NVMWriteBack checks a physical write-back (eviction) for the exact WAR
// condition. Checkpoint-internal writes must not be reported through here.
func (v *Verifier) NVMWriteBack(addr uint32, size int) {
	if v == nil || !v.cfg.CheckWAR {
		return
	}
	if v.tracker.ReadDominated(addr, size) {
		v.record(Violation{Kind: WARViolation, Addr: addr, Size: size})
	}
}

// IntervalBoundary marks a committed checkpoint (or, for ReplayCache, a
// completed idempotent region): the rollback point moves here.
func (v *Verifier) IntervalBoundary() {
	if v == nil {
		return
	}
	v.resetInterval()
}

// PowerFailure rewinds the shadow to the last boundary for rollback systems.
func (v *Verifier) PowerFailure() {
	if v == nil {
		return
	}
	if v.cfg.RollbackOnFailure {
		for _, u := range v.undo {
			v.shadow.Write(u.addr, 4, u.old)
		}
		v.resetInterval()
	}
}

// OnWriteBack implements sim.Probe: physical write-backs (safe evictions,
// write-through stores, asynchronous queue writes) run the WAR check.
// Unsafe and dropped-stack verdicts never reach NVM directly — the former is
// flushed inside a checkpoint, the latter discarded — so they are not
// write-backs to check.
func (v *Verifier) OnWriteBack(e sim.WriteBackEvent) {
	if v == nil {
		return
	}
	switch e.Verdict {
	case sim.VerdictSafe, sim.VerdictWriteThrough, sim.VerdictAsync:
		v.NVMWriteBack(e.Addr, e.Size)
	}
}

// OnCheckpointCommit implements sim.Probe: committed checkpoints and
// completed regions are interval boundaries; ReplayCache's JIT save is not
// (its shadow must survive the failure unrewound).
func (v *Verifier) OnCheckpointCommit(e sim.CheckpointEvent) {
	if v == nil {
		return
	}
	switch e.Kind {
	case sim.CheckpointCommit, sim.CheckpointRegion:
		v.IntervalBoundary()
	}
}

// OnPowerFailure implements sim.Probe.
func (v *Verifier) OnPowerFailure(sim.PowerEvent) { v.PowerFailure() }

// Err returns a summarizing error if any violation was detected: the count
// of violations, wrapping the first Violation.
func (v *Verifier) Err() error {
	if v == nil || v.violations == 0 {
		return nil
	}
	return fmt.Errorf("verify: %d violation(s), first: %w", v.violations, v.first)
}

// Release gives back the shadow's pages, the journal's and the tracker's
// once the run is over and its error has been read. The verifier must not
// be used again.
func (v *Verifier) Release() {
	if v == nil {
		return
	}
	v.shadow.Release()
	v.journalled.Release()
	v.tracker.Release()
}

// Shadow exposes the shadow space for final-state comparison in tests.
func (v *Verifier) Shadow() *mem.Space { return v.shadow }
