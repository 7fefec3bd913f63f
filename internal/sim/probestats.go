package sim

import "nacho/internal/metrics"

// This file holds the two stock probe implementations that cannot live in
// their "natural" packages: metrics is imported *by* sim (System.Attach takes
// a *metrics.Counters), so the counters-from-events adapter and the
// per-interval statistics collector are defined here instead.

// CounterProbe independently derives a metrics.Counters from the probe event
// stream. It exists to prove the stream is complete: a run observed through a
// CounterProbe must reproduce every directly-maintained counter except Cycles
// (which the emulator stamps from its clock at end of run, not from an
// event), Instructions (retired instructions are not probe events; the
// trace recorder's line count checks them instead), and Loads, Stores,
// CacheHits and CacheMisses (CPU data accesses are not probe events: the
// emulator hands them to the verifier directly). The property tests in
// internal/harness assert exactly that for every system.
type CounterProbe struct {
	NopProbe
	c metrics.Counters
}

// NewCounterProbe returns an empty counter-deriving probe.
func NewCounterProbe() *CounterProbe { return &CounterProbe{} }

// Counters returns the counters derived so far.
func (cp *CounterProbe) Counters() metrics.Counters { return cp.c }

// OnWriteBack implements Probe.
func (cp *CounterProbe) OnWriteBack(e WriteBackEvent) {
	switch e.Verdict {
	case VerdictSafe:
		cp.c.SafeEvictions++
		cp.c.Evictions++
	case VerdictUnsafe:
		cp.c.UnsafeEvictions++
	case VerdictDroppedStack:
		cp.c.DroppedStackLines++
	case VerdictAsync:
		cp.c.Evictions++
	}
}

// OnCheckpointCommit implements Probe.
func (cp *CounterProbe) OnCheckpointCommit(e CheckpointEvent) {
	switch e.Kind {
	case CheckpointCommit:
		cp.c.Checkpoints++
		cp.c.CheckpointLines += uint64(e.Lines)
		if n := uint64(e.Lines); n > cp.c.MaxCheckpointLines {
			cp.c.MaxCheckpointLines = n
		}
		if e.Forced {
			cp.c.ForcedCkpts++
		}
		if e.Adaptive {
			cp.c.AdaptiveCkpts++
		}
		if e.IntervalValid {
			cp.c.RecordInterval(e.Interval)
		}
	case CheckpointRegion:
		cp.c.Regions++
	case CheckpointJIT:
		cp.c.Checkpoints++
	}
}

// OnPowerFailure implements Probe.
func (cp *CounterProbe) OnPowerFailure(PowerEvent) { cp.c.PowerFailures++ }

// OnRestore implements Probe.
func (cp *CounterProbe) OnRestore(e RestoreEvent) { cp.c.RestoreCycles += e.Cycles }

// OnNVM implements Probe.
func (cp *CounterProbe) OnNVM(e NVMEvent) {
	if e.Write {
		cp.c.NVMWrites++
		cp.c.NVMWriteBytes += uint64(e.Bytes)
	} else {
		cp.c.NVMReads++
		cp.c.NVMReadBytes += uint64(e.Bytes)
	}
}

// IntervalStat is the statistics of one checkpoint interval: the stretch of
// execution between two consecutive persistence points (checkpoint commits,
// region ends, or a power failure).
type IntervalStat struct {
	Start, End uint64 // cycles
	// NVM traffic inside the interval (checkpoint writes included: they are
	// exactly the recovery cost the interval's length buys).
	NVMReadBytes, NVMWriteBytes uint64
	// WriteBacks histograms the interval's write-back verdicts by Verdict.
	WriteBacks [NumVerdicts]uint64
	// Lines is the dirty-line payload of the closing checkpoint.
	Lines int
	// Kind is what closed the interval; PowerFailure marks intervals cut
	// short by a failure instead of a commit, EndOfRun the tail interval
	// closed by Finish.
	Kind         CheckpointKind
	PowerFailure bool
	EndOfRun     bool
}

// maxIntervals bounds stored per-interval records; runs with more
// intervals keep aggregate totals and count the overflow in Dropped.
const maxIntervals = 4096

// IntervalStats collects per-checkpoint-interval statistics from the probe
// stream — the capability behind `nachosim -probe-stats`. It is the kind of
// observer the pre-probe design could not express without modifying every
// system: it needs NVM traffic, write-back verdicts, and checkpoint commits
// correlated on one timeline.
type IntervalStats struct {
	NopProbe
	Intervals []IntervalStat
	Dropped   int // intervals beyond the first 4096 (still in the totals)

	TotalNVMReadBytes  uint64
	TotalNVMWriteBytes uint64
	TotalWriteBacks    [NumVerdicts]uint64

	cur IntervalStat
}

// OnNVM implements Probe.
func (s *IntervalStats) OnNVM(e NVMEvent) {
	if e.Write {
		s.cur.NVMWriteBytes += uint64(e.Bytes)
	} else {
		s.cur.NVMReadBytes += uint64(e.Bytes)
	}
}

// OnWriteBack implements Probe.
func (s *IntervalStats) OnWriteBack(e WriteBackEvent) {
	s.cur.WriteBacks[e.Verdict]++
}

// OnCheckpointCommit implements Probe.
func (s *IntervalStats) OnCheckpointCommit(e CheckpointEvent) {
	s.cur.Kind, s.cur.Lines = e.Kind, e.Lines
	s.close(e.Cycle)
}

// OnPowerFailure implements Probe: a failure ends the interval without a
// commit (the work since the last persistence point is lost).
func (s *IntervalStats) OnPowerFailure(e PowerEvent) {
	s.cur.PowerFailure = true
	s.close(e.Cycle)
}

// Finish closes the tail interval at the run's final cycle. Call it once
// after the run completes.
func (s *IntervalStats) Finish(now uint64) {
	if now > s.cur.Start || s.cur != (IntervalStat{Start: s.cur.Start}) {
		s.cur.EndOfRun = true
		s.close(now)
	}
}

func (s *IntervalStats) close(now uint64) {
	s.cur.End = now
	s.TotalNVMReadBytes += s.cur.NVMReadBytes
	s.TotalNVMWriteBytes += s.cur.NVMWriteBytes
	for i, n := range s.cur.WriteBacks {
		s.TotalWriteBacks[i] += n
	}
	if len(s.Intervals) < maxIntervals {
		s.Intervals = append(s.Intervals, s.cur)
	} else {
		s.Dropped++
	}
	s.cur = IntervalStat{Start: now}
}

// Count is the total number of intervals observed, stored or dropped.
func (s *IntervalStats) Count() int { return len(s.Intervals) + s.Dropped }
