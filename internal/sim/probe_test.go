package sim

import (
	"reflect"
	"testing"
)

// eventCounter records how many times each hook fired.
type eventCounter struct {
	access, writeBack, begin, commit, power, restore, nvm int
}

func (c *eventCounter) OnAccess(AccessEvent)               { c.access++ }
func (c *eventCounter) OnWriteBack(WriteBackEvent)         { c.writeBack++ }
func (c *eventCounter) OnCheckpointBegin(CheckpointEvent)  { c.begin++ }
func (c *eventCounter) OnCheckpointCommit(CheckpointEvent) { c.commit++ }
func (c *eventCounter) OnPowerFailure(PowerEvent)          { c.power++ }
func (c *eventCounter) OnRestore(RestoreEvent)             { c.restore++ }
func (c *eventCounter) OnNVM(NVMEvent)                     { c.nvm++ }

// emitOneOfEach fires every hook exactly once.
func emitOneOfEach(p Probe) {
	p.OnAccess(AccessEvent{})
	p.OnWriteBack(WriteBackEvent{})
	p.OnCheckpointBegin(CheckpointEvent{})
	p.OnCheckpointCommit(CheckpointEvent{})
	p.OnPowerFailure(PowerEvent{})
	p.OnRestore(RestoreEvent{})
	p.OnNVM(NVMEvent{})
}

func TestCombine(t *testing.T) {
	if got := Combine(); got != nil {
		t.Errorf("Combine() = %v, want nil", got)
	}
	if got := Combine(nil, nil); got != nil {
		t.Errorf("Combine(nil, nil) = %v, want nil", got)
	}
	single := &eventCounter{}
	if got := Combine(nil, single, nil); got != Probe(single) {
		t.Errorf("Combine with one non-nil probe should return it directly, got %T", got)
	}
	a, b := &eventCounter{}, &eventCounter{}
	combined := Combine(a, nil, b)
	ps, ok := combined.(Probes)
	if !ok || len(ps) != 2 {
		t.Fatalf("Combine(a, nil, b) = %T of len %d, want Probes of len 2", combined, len(ps))
	}
}

func TestProbesFanOut(t *testing.T) {
	a, b := &eventCounter{}, &eventCounter{}
	var ps Probes
	ps.Add(a)
	ps.Add(nil) // ignored
	ps.Add(b)
	if len(ps) != 2 {
		t.Fatalf("Add kept %d probes, want 2 (nil must be dropped)", len(ps))
	}
	emitOneOfEach(ps)
	want := eventCounter{1, 1, 1, 1, 1, 1, 1}
	if *a != want || *b != want {
		t.Errorf("fan-out mismatch: a=%+v b=%+v, want every hook fired once", *a, *b)
	}
}

// TestNopProbeIsProbe pins the interface contract: NopProbe must satisfy the
// full Probe interface so partial observers can embed it.
func TestNopProbeIsProbe(t *testing.T) {
	var p Probe = NopProbe{}
	emitOneOfEach(p) // must not panic
}

func TestCounterProbeDerivations(t *testing.T) {
	cp := NewCounterProbe()

	cp.OnAccess(AccessEvent{Store: false, Class: AccessHit})
	cp.OnAccess(AccessEvent{Store: true, Class: AccessMiss})
	cp.OnAccess(AccessEvent{Store: true, Class: AccessNVM})
	cp.OnAccess(AccessEvent{Store: false, Class: AccessMMIO})

	cp.OnWriteBack(WriteBackEvent{Verdict: VerdictSafe})
	cp.OnWriteBack(WriteBackEvent{Verdict: VerdictUnsafe})
	cp.OnWriteBack(WriteBackEvent{Verdict: VerdictDroppedStack})
	cp.OnWriteBack(WriteBackEvent{Verdict: VerdictWriteThrough})
	cp.OnWriteBack(WriteBackEvent{Verdict: VerdictAsync})

	cp.OnCheckpointCommit(CheckpointEvent{Kind: CheckpointCommit, Lines: 3, Forced: true, Interval: 500, IntervalValid: true})
	cp.OnCheckpointCommit(CheckpointEvent{Kind: CheckpointCommit, Lines: 7, Adaptive: true})
	cp.OnCheckpointCommit(CheckpointEvent{Kind: CheckpointRegion})
	cp.OnCheckpointCommit(CheckpointEvent{Kind: CheckpointJIT})

	cp.OnPowerFailure(PowerEvent{})
	cp.OnRestore(RestoreEvent{Cycles: 42})
	cp.OnNVM(NVMEvent{Bytes: 16, Write: false})
	cp.OnNVM(NVMEvent{Bytes: 8, Write: true})

	c := cp.Counters()
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"Loads", c.Loads, 2},
		{"Stores", c.Stores, 2},
		{"CacheHits", c.CacheHits, 1},
		{"CacheMisses", c.CacheMisses, 1},
		{"SafeEvictions", c.SafeEvictions, 1},
		{"UnsafeEvictions", c.UnsafeEvictions, 1},
		{"DroppedStackLines", c.DroppedStackLines, 1},
		{"Evictions", c.Evictions, 2},     // safe + async
		{"Checkpoints", c.Checkpoints, 3}, // 2 commits + 1 JIT save
		{"CheckpointLines", c.CheckpointLines, 10},
		{"MaxCheckpointLines", c.MaxCheckpointLines, 7},
		{"ForcedCkpts", c.ForcedCkpts, 1},
		{"AdaptiveCkpts", c.AdaptiveCkpts, 1},
		{"Regions", c.Regions, 1},
		{"PowerFailures", c.PowerFailures, 1},
		{"RestoreCycles", c.RestoreCycles, 42},
		{"NVMReads", c.NVMReads, 1},
		{"NVMReadBytes", c.NVMReadBytes, 16},
		{"NVMWrites", c.NVMWrites, 1},
		{"NVMWriteBytes", c.NVMWriteBytes, 8},
		{"IntervalHist[0]", c.IntervalHist[0], 1}, // 500 < 1k
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
}

func TestIntervalStats(t *testing.T) {
	var s IntervalStats

	// Interval 0: some traffic, closed by a commit.
	s.OnNVM(NVMEvent{Cycle: 10, Bytes: 4, Write: false})
	s.OnNVM(NVMEvent{Cycle: 20, Bytes: 8, Write: true})
	s.OnWriteBack(WriteBackEvent{Cycle: 30, Verdict: VerdictSafe})
	s.OnCheckpointCommit(CheckpointEvent{Cycle: 100, Kind: CheckpointCommit, Lines: 2})

	// Interval 1: cut short by a power failure.
	s.OnNVM(NVMEvent{Cycle: 150, Bytes: 16, Write: true})
	s.OnPowerFailure(PowerEvent{Cycle: 200})

	// Interval 2: tail, closed by Finish.
	s.OnWriteBack(WriteBackEvent{Cycle: 250, Verdict: VerdictUnsafe})
	s.Finish(300)

	if s.Count() != 3 || len(s.Intervals) != 3 {
		t.Fatalf("Count = %d, len(Intervals) = %d, want 3", s.Count(), len(s.Intervals))
	}
	want := []IntervalStat{
		{Start: 0, End: 100, NVMReadBytes: 4, NVMWriteBytes: 8, Lines: 2, Kind: CheckpointCommit},
		{Start: 100, End: 200, NVMWriteBytes: 16, PowerFailure: true},
		{Start: 200, End: 300, EndOfRun: true},
	}
	want[0].WriteBacks[VerdictSafe] = 1
	want[2].WriteBacks[VerdictUnsafe] = 1
	for i, w := range want {
		if !reflect.DeepEqual(s.Intervals[i], w) {
			t.Errorf("interval %d = %+v, want %+v", i, s.Intervals[i], w)
		}
	}
	if s.TotalNVMReadBytes != 4 || s.TotalNVMWriteBytes != 24 {
		t.Errorf("totals = %d read, %d written, want 4/24", s.TotalNVMReadBytes, s.TotalNVMWriteBytes)
	}
	if s.TotalWriteBacks[VerdictSafe] != 1 || s.TotalWriteBacks[VerdictUnsafe] != 1 {
		t.Errorf("total write-backs = %v, want one safe and one unsafe", s.TotalWriteBacks)
	}
}

// TestIntervalStatsFinishIdleTail checks Finish does not fabricate an empty
// interval when the run ended exactly at the last persistence point.
func TestIntervalStatsFinishIdleTail(t *testing.T) {
	var s IntervalStats
	s.OnCheckpointCommit(CheckpointEvent{Cycle: 100, Kind: CheckpointCommit})
	s.Finish(100)
	if len(s.Intervals) != 1 {
		t.Fatalf("got %d intervals, want 1 (no empty tail)", len(s.Intervals))
	}
}

func TestIntervalStatsOverflow(t *testing.T) {
	var s IntervalStats
	const n = maxIntervals + 3
	for i := uint64(1); i <= n; i++ {
		s.OnNVM(NVMEvent{Bytes: 1, Write: true})
		s.OnCheckpointCommit(CheckpointEvent{Cycle: i * 100, Kind: CheckpointCommit})
	}
	if len(s.Intervals) != maxIntervals || s.Dropped != 3 {
		t.Errorf("stored %d, dropped %d, want %d stored and 3 dropped", len(s.Intervals), s.Dropped, maxIntervals)
	}
	if s.Count() != n {
		t.Errorf("Count = %d, want %d", s.Count(), n)
	}
	if s.TotalNVMWriteBytes != n {
		t.Errorf("TotalNVMWriteBytes = %d, want %d (totals must keep counting past the cap)", s.TotalNVMWriteBytes, n)
	}
}

func TestEnumStrings(t *testing.T) {
	cases := []struct{ got, want string }{
		{AccessHit.String(), "hit"},
		{AccessMiss.String(), "miss"},
		{AccessNVM.String(), "nvm"},
		{AccessMMIO.String(), "mmio"},
		{VerdictSafe.String(), "safe"},
		{VerdictUnsafe.String(), "unsafe"},
		{VerdictDroppedStack.String(), "dropped-stack"},
		{VerdictWriteThrough.String(), "write-through"},
		{VerdictAsync.String(), "async"},
		{CheckpointCommit.String(), "commit"},
		{CheckpointRegion.String(), "region"},
		{CheckpointJIT.String(), "jit"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}
