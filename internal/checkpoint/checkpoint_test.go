package checkpoint

import (
	"testing"

	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
)

// regs is a register source whose snapshot the test sets.
type regs struct{ snap sim.Snapshot }

func (r *regs) RegSnapshot() sim.Snapshot { return r.snap }

// recorder logs the store's event stream in order, the way the verifier and
// sim.CounterProbe observe it.
type recorder struct {
	sim.NopProbe
	log []event
}

// event is one logged hook: exactly one of its fields is set.
type event struct {
	begin, commit *sim.CheckpointEvent
	nvm           *sim.NVMEvent
	wb            *sim.WriteBackEvent
}

func (r *recorder) OnCheckpointBegin(e sim.CheckpointEvent) { r.log = append(r.log, event{begin: &e}) }
func (r *recorder) OnCheckpointCommit(e sim.CheckpointEvent) {
	r.log = append(r.log, event{commit: &e})
}
func (r *recorder) OnNVM(e sim.NVMEvent)             { r.log = append(r.log, event{nvm: &e}) }
func (r *recorder) OnWriteBack(e sim.WriteBackEvent) { r.log = append(r.log, event{wb: &e}) }

// commits returns the logged commit events.
func (r *recorder) commits() []sim.CheckpointEvent {
	var out []sim.CheckpointEvent
	for _, e := range r.log {
		if e.commit != nil {
			out = append(out, *e.commit)
		}
	}
	return out
}

// rig is a store attached to a test clock, a register source, the run's
// counters and a recorder, with its boot checkpoint (pc 0x100) written.
type rig struct {
	st   *Store
	nvm  *mem.NVM
	clk  *sim.TestClock
	regs *regs
	c    *metrics.Counters
	rec  *recorder
}

func newRig(maxLines int, failAt uint64) *rig {
	r := &rig{
		nvm:  mem.NewNVM(mem.NewSpace()),
		clk:  &sim.TestClock{FailAt: failAt},
		regs: &regs{snap: snap(0x100)},
		c:    &metrics.Counters{},
		rec:  &recorder{},
	}
	r.st = NewStore(r.nvm, maxLines)
	r.st.Attach(r.clk, r.regs, r.c, r.rec)
	return r
}

// checkpoint takes a checkpoint of pc's snapshot and lines, double- or
// single-buffered, and reports whether a power failure cut it short.
func (r *rig) checkpoint(single bool, pc uint32, lines []Line, ev sim.CheckpointEvent) (failed bool) {
	r.regs.snap = snap(pc)
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(sim.PowerFail); !ok {
				panic(e)
			}
			failed = true
		}
	}()
	if single {
		r.st.CheckpointSingleBuffered(append(r.st.Staged(), lines...), ev)
	} else {
		r.st.Checkpoint(append(r.st.Staged(), lines...), ev)
	}
	return false
}

// newestSeq reads the larger of the two slots' sequence words, uncharged.
func (r *rig) newestSeq() uint32 {
	return max(r.nvm.ReadRaw(r.st.slotAddr(0, offSeq), 4), r.nvm.ReadRaw(r.st.slotAddr(1, offSeq), 4))
}

// checkCommitAtSeqWord fails t unless every commit event directly follows
// the NVM write of a slot's sequence word and carries that write's cycle:
// the commit is announced at the instant it becomes the reboot target.
func (r *rig) checkCommitAtSeqWord(t *testing.T, what string) {
	t.Helper()
	for i, e := range r.rec.log {
		if e.commit == nil {
			continue
		}
		if i == 0 || r.rec.log[i-1].nvm == nil {
			t.Fatalf("%s: commit event %d does not follow an NVM write", what, i)
		}
		w := r.rec.log[i-1].nvm
		if !w.Write || (w.Addr != r.st.slotAddr(0, offSeq) && w.Addr != r.st.slotAddr(1, offSeq)) {
			t.Fatalf("%s: commit event follows %+v, not a sequence-word write", what, *w)
		}
		if e.commit.Cycle != w.Cycle {
			t.Fatalf("%s: commit event at cycle %d, its sequence word landed at %d", what, e.commit.Cycle, w.Cycle)
		}
	}
}

func snap(pc uint32) sim.Snapshot {
	var s sim.Snapshot
	s.PC = pc
	for i := range s.Regs {
		s.Regs[i] = pc + uint32(i)
	}
	return s
}

func TestInitAndRestore(t *testing.T) {
	r := newRig(4, 0)
	if r.clk.Cycle != 0 || len(r.rec.log) != 0 {
		t.Errorf("Attach charged %d cycles and emitted %d events, want none", r.clk.Cycle, len(r.rec.log))
	}
	got, ok := r.st.Restore()
	if !ok || got != snap(0x100) {
		t.Fatalf("Restore = %+v, %v; want boot snapshot", got, ok)
	}
}

func TestRestoreWithoutInit(t *testing.T) {
	nvm := mem.NewNVM(mem.NewSpace())
	nvm.Attach(&sim.TestClock{}, &metrics.Counters{}, nil)
	if _, ok := NewStore(nvm, 0).Restore(); ok {
		t.Error("Restore succeeded on empty store")
	}
}

func TestCheckpointRoundTripAndLines(t *testing.T) {
	r := newRig(4, 0)
	r.checkpoint(false, 0x2000, []Line{{Addr: 0x2000, Data: 0xAAAA}, {Addr: 0x2004, Data: 0xBBBB}}, sim.CheckpointEvent{})
	got, ok := r.st.Restore()
	if !ok || got != snap(0x2000) {
		t.Fatalf("Restore after checkpoint: %+v, %v", got, ok)
	}
	// Redo applied the lines to their home addresses.
	if r.nvm.ReadRaw(0x2000, 4) != 0xAAAA || r.nvm.ReadRaw(0x2004, 4) != 0xBBBB {
		t.Error("checkpoint lines not applied to home NVM")
	}
}

func TestSlotsAlternate(t *testing.T) {
	r := newRig(0, 0)
	for i := uint32(1); i <= 5; i++ {
		r.checkpoint(false, 0x1000+4*i, nil, sim.CheckpointEvent{})
		got, ok := r.st.Restore()
		if !ok || got.PC != 0x1000+4*i {
			t.Fatalf("checkpoint %d: restore pc %#x", i, got.PC)
		}
	}
}

// TestCommitCountedAndAnnounced: each checkpoint, double- or
// single-buffered, is counted once in the run's counters and announced once,
// at its sequence word, with the cause its system gave, its line count and,
// where the system asks, the interval since the previous commit.
func TestCommitCountedAndAnnounced(t *testing.T) {
	for _, single := range []bool{false, true} {
		r := newRig(4, 0)
		r.clk.Cycle = 500
		r.checkpoint(single, 0x200, []Line{{Addr: 0x2000, Data: 1}, {Addr: 0x2004, Data: 2}},
			sim.CheckpointEvent{Forced: true, IntervalValid: true})
		r.clk.Cycle += 20_000
		r.checkpoint(single, 0x300, []Line{{Addr: 0x2008, Data: 3}}, sim.CheckpointEvent{Adaptive: true, IntervalValid: true})
		r.checkpoint(single, 0x400, nil, sim.CheckpointEvent{Kind: sim.CheckpointJIT})

		got := r.rec.commits()
		if len(got) != 3 {
			t.Fatalf("single=%v: %d commit events, want 3", single, len(got))
		}
		r.checkCommitAtSeqWord(t, "failure-free")
		want := []sim.CheckpointEvent{
			{Lines: 2, Forced: true, Interval: got[0].Cycle, IntervalValid: true},
			{Lines: 1, Adaptive: true, Interval: got[1].Cycle - got[0].Cycle, IntervalValid: true},
			{Kind: sim.CheckpointJIT},
		}
		for i := range want {
			want[i].Cycle = got[i].Cycle
			if got[i] != want[i] {
				t.Errorf("single=%v: commit %d = %+v, want %+v", single, i, got[i], want[i])
			}
		}
		c := r.c
		if c.Checkpoints != 3 || c.CheckpointLines != 3 || c.MaxCheckpointLines != 2 ||
			c.ForcedCkpts != 1 || c.AdaptiveCkpts != 1 || c.IntervalHist != [4]uint64{1, 0, 1, 0} {
			t.Errorf("single=%v: counters %+v", single, *c)
		}
		derived := sim.NewCounterProbe()
		for _, e := range got {
			derived.OnCheckpointCommit(e)
		}
		if d := derived.Counters(); d.Checkpoints != c.Checkpoints || d.CheckpointLines != c.CheckpointLines ||
			d.MaxCheckpointLines != c.MaxCheckpointLines || d.ForcedCkpts != c.ForcedCkpts ||
			d.AdaptiveCkpts != c.AdaptiveCkpts || d.IntervalHist != c.IntervalHist {
			t.Errorf("single=%v: counters from the commit events %+v differ from the store's %+v", single, d, *c)
		}
	}
}

// TestWriteBackAndRegionEnd: a write-back verdict is announced at the
// clock's cycle and counted by nobody here (its system counts it); a region
// end is counted and announced.
func TestWriteBackAndRegionEnd(t *testing.T) {
	r := newRig(0, 0)
	r.clk.Cycle = 42
	r.st.WriteBack(0x2000, 2, sim.VerdictWriteThrough)
	r.st.RegionEnd()
	if len(r.rec.log) != 2 || r.rec.log[0].wb == nil || r.rec.log[1].commit == nil {
		t.Fatalf("event log %+v, want one write-back and one commit", r.rec.log)
	}
	if got, want := *r.rec.log[0].wb, (sim.WriteBackEvent{Cycle: 42, Addr: 0x2000, Size: 2, Verdict: sim.VerdictWriteThrough}); got != want {
		t.Errorf("write-back event %+v, want %+v", got, want)
	}
	if got, want := *r.rec.log[1].commit, (sim.CheckpointEvent{Cycle: 42, Kind: sim.CheckpointRegion}); got != want {
		t.Errorf("region event %+v, want %+v", got, want)
	}
	if want := (metrics.Counters{Regions: 1}); *r.c != want {
		t.Errorf("counters %+v, want only Regions 1", *r.c)
	}
}

// TestStagedBufferIsKept: Staged hands back the buffer of the previous
// checkpoint, empty, so once it has grown to the largest checkpoint a
// checkpoint allocates nothing.
func TestStagedBufferIsKept(t *testing.T) {
	r := newRig(8, 0)
	r.st.Attach(r.clk, r.regs, r.c, nil) // the recorder's log would allocate
	lines := []Line{{Addr: 0x2000}, {Addr: 0x2004}, {Addr: 0x2008}}
	r.checkpoint(false, 0x200, lines, sim.CheckpointEvent{})
	if s := r.st.Staged(); len(s) != 0 || cap(s) < len(lines) {
		t.Fatalf("Staged() has len %d cap %d after a %d-line checkpoint", len(s), cap(s), len(lines))
	}
	allocs := testing.AllocsPerRun(10, func() {
		r.st.Checkpoint(append(r.st.Staged(), lines[:2]...), sim.CheckpointEvent{})
	})
	if allocs != 0 {
		t.Errorf("a checkpoint into the kept buffer allocated %.0f times", allocs)
	}
}

func TestCapacityPanic(t *testing.T) {
	r := newRig(1, 0)
	defer func() {
		if recover() == nil {
			t.Error("over-capacity checkpoint did not panic")
		}
	}()
	r.st.Checkpoint([]Line{{Addr: 0, Data: 0}, {Addr: 4, Data: 0}}, sim.CheckpointEvent{})
}

// TestCrashConsistencyAtEveryCycle is the incorruptibility property
// (paper Section 4.1): a power failure at ANY cycle during a checkpoint must
// leave the store restoring either the complete old checkpoint (with old NVM
// home values) or the complete new one (with the redo guaranteed to finish
// during Restore). It simulates the failure at every possible cycle, and at
// each one requires the commit to be counted and announced exactly once if
// its sequence word landed and never if it did not. Single-buffered
// checkpoints get the counting check alone: without the energy reserve a
// failure inside one tears it by design.
func TestCrashConsistencyAtEveryCycle(t *testing.T) {
	const homeAddr = 0x2000
	const oldVal, newVal = 0x0501D01D, 0x05E30E30
	lines := []Line{{Addr: homeAddr, Data: newVal}, {Addr: homeAddr + 4, Data: 2}}

	for _, single := range []bool{false, true} {
		// Measure the failure-free checkpoint duration first.
		free := newRig(2, 0)
		free.checkpoint(single, 0x200, lines, sim.CheckpointEvent{})
		total := free.clk.Cycle

		for fail := uint64(1); fail <= total+1; fail++ {
			r := newRig(2, fail)
			r.nvm.WriteRaw(homeAddr, 4, oldVal)
			r.nvm.WriteRaw(homeAddr+4, 4, 0xB01D0)
			if failed := r.checkpoint(single, 0x200, lines, sim.CheckpointEvent{}); failed != (fail <= total) {
				t.Fatalf("single=%v fail@%d of %d: power failure %v", single, fail, total, failed)
			}
			r.clk.FailAt = 0 // the reboot runs on fresh energy

			landed := r.newestSeq() == 2 // the boot checkpoint holds sequence 1
			n := uint64(len(r.rec.commits()))
			if landed && (n != 1 || r.c.Checkpoints != 1) || !landed && (n != 0 || r.c.Checkpoints != 0) {
				t.Fatalf("single=%v fail@%d: commit word landed %v, yet %d commit events and %d counted",
					single, fail, landed, n, r.c.Checkpoints)
			}
			r.checkCommitAtSeqWord(t, "failure-cut")
			if single {
				continue
			}

			// Reboot: restore must succeed and be internally consistent.
			got, ok := r.st.Restore()
			if !ok {
				t.Fatalf("fail@%d: no restorable checkpoint", fail)
			}
			switch got.PC {
			case 0x100: // old checkpoint survived
				if landed {
					t.Fatalf("fail@%d: commit word landed but old checkpoint restored", fail)
				}
				if v := r.nvm.ReadRaw(homeAddr, 4); v != oldVal {
					t.Fatalf("fail@%d: home NVM %#x modified before commit", fail, v)
				}
			case 0x200: // new checkpoint won; redo must be complete after Restore
				if !landed {
					t.Fatalf("fail@%d: new checkpoint restored without its commit word", fail)
				}
				if v := r.nvm.ReadRaw(homeAddr, 4); v != newVal {
					t.Fatalf("fail@%d: committed checkpoint but home = %#x", fail, v)
				}
				if v := r.nvm.ReadRaw(homeAddr+4, 4); v != 2 {
					t.Fatalf("fail@%d: second line not applied: %#x", fail, v)
				}
			default:
				t.Fatalf("fail@%d: restored unexpected pc %#x", fail, got.PC)
			}
		}
	}
}

// TestTornCheckpointFallsBackByteForByte pins the narrowest torn-checkpoint
// window: the power cut lands after every redo-log (staging) word has reached
// NVM but before the commit flag — the sequence word — flips. The staged
// checkpoint is complete in the inactive slot, yet it must be as if it never
// happened: nothing is counted or announced, Restore returns the previous
// snapshot, and every NVM byte outside the staging slot is bit-identical to
// the pre-checkpoint image.
func TestTornCheckpointFallsBackByteForByte(t *testing.T) {
	const homeAddr = 0x2000
	const oldVal, newVal = 0x0DDC0FFE, 0x0DDFACE5
	lines := []Line{{Addr: homeAddr, Data: newVal}, {Addr: homeAddr + 4, Data: 2}}

	// Staging is offApplied + offNLines + snapshot words + (addr,data) per
	// line; the commit sequence word is the very next NVM write. Every write
	// advances the clock by mem.NVMCycles BEFORE the data lands, so failing
	// at any cycle in (stageEnd, commitEnd] means staging is fully on NVM and
	// the commit word is not.
	stagingWrites := uint64(2 + sim.SnapshotWords + 2*len(lines))
	stageEnd := stagingWrites * mem.NVMCycles
	commitEnd := stageEnd + mem.NVMCycles

	// Ground the arithmetic against the real write sequence once: the
	// commit is announced when the sequence word lands.
	{
		r := newRig(2, 0)
		r.checkpoint(false, 0x200, lines, sim.CheckpointEvent{})
		if c := r.rec.commits(); len(c) != 1 || c[0].Cycle != commitEnd {
			t.Fatalf("commit events %+v; want one at cycle %d, where the test computes the commit word lands", c, commitEnd)
		}
	}

	for fail := stageEnd + 1; fail <= commitEnd; fail++ {
		r := newRig(2, fail)
		r.nvm.WriteRaw(homeAddr, 4, oldVal)
		r.nvm.WriteRaw(homeAddr+4, 4, 0xB01D)
		pre := r.nvm.Space().Fork()

		if !r.checkpoint(false, 0x200, lines, sim.CheckpointEvent{}) {
			t.Fatalf("fail@%d: checkpoint completed, expected a power failure", fail)
		}
		if n := len(r.rec.commits()); n != 0 || r.c.Checkpoints != 0 {
			t.Fatalf("fail@%d: %d commit events and %d counted before the sequence word landed", fail, n, r.c.Checkpoints)
		}

		got, ok := r.st.Restore()
		if !ok || got != snap(0x100) {
			t.Fatalf("fail@%d: Restore = %+v, %v; want the pre-checkpoint snapshot", fail, got, ok)
		}

		// Byte-for-byte fallback: only bytes inside the staging slot may
		// differ from the pre-checkpoint image (the staged words are there,
		// but uncommitted data is invisible to Restore).
		stagingLo := r.st.slotAddr(1, 0)
		stagingHi := stagingLo + r.st.slotWords()*4
		check := func(lo, hi uint32) {
			for a := lo; a < hi; a++ {
				if a >= stagingLo && a < stagingHi {
					continue
				}
				if got, want := r.nvm.ReadRaw(a, 1), pre.Read(a, 1); got != want {
					t.Fatalf("fail@%d: NVM byte 0x%08x = %#02x, want pre-checkpoint %#02x", fail, a, got, want)
				}
			}
		}
		check(homeAddr, homeAddr+8)
		check(mem.CheckpointBase, mem.CheckpointBase+r.st.SizeBytes())
	}
}

func TestSizeBytes(t *testing.T) {
	s := NewStore(nil, 8)
	want := uint32(2 * (offLines + 16) * 4)
	if s.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", s.SizeBytes(), want)
	}
}

// TestEqualState: a fork stands at its parent's sequence position over equal
// NVM, also after a different last commit (it only feeds counters); a
// commit, or an NVM word, tells them apart.
func TestEqualState(t *testing.T) {
	r := newRig(2, 0)
	fork := func() *Store { return r.st.Fork(&sim.TestClock{}, r.regs, &metrics.Counters{}) }
	f := fork()
	f.lastCommit += 77
	if !r.st.EqualState(f) || !f.EqualState(r.st) {
		t.Fatal("a fork compares unequal")
	}
	f = fork()
	f.seq++
	if r.st.EqualState(f) || f.EqualState(r.st) {
		t.Fatal("stores at different sequence positions compare equal")
	}
	f = fork()
	f.NVM().WriteRaw(0x300, 4, 9)
	if r.st.EqualState(f) || f.EqualState(r.st) {
		t.Fatal("stores over different NVM compare equal")
	}
}
