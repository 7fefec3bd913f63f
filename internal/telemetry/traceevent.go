package telemetry

import (
	"fmt"
	"io"

	"nacho/internal/mem"
	"nacho/internal/sim"
)

// TraceEventProbe renders the probe stream as Chrome trace-event JSON — the
// format Perfetto (ui.perfetto.dev) and chrome://tracing open directly —
// giving the first visual timeline of an intermittent execution. One track
// (thread) per event family:
//
//   - "checkpoint intervals": each stretch between persistence points as a
//     duration slice, named by what closed it (commit/region/jit,
//     power-failure, end-of-run), with the dirty-line payload in args;
//   - "checkpoint flush": the staging window from OnCheckpointBegin to the
//     commit (or to the power failure that aborted it);
//   - "power": each outage from the failure instant to the completed restore,
//     with the restore cost in args;
//   - "write-backs": every write-back verdict as an instant event;
//   - "nvm traffic": a counter track of cumulative NVM bytes, sampled at
//     every persistence point (not per transfer, which would bloat the file).
//
// CPU data accesses are not probe events (the emulator hands them to the
// verifier directly): a trace viewer could not usefully display tens of
// millions of instants, and the cycle-exact per-instruction record already
// exists via trace.Recorder.
//
// Events stream through a buffered writer as they happen, so memory stays
// bounded on arbitrarily long runs. Call Finish once after the run to close
// the tail interval, terminate the JSON, and flush.
type TraceEventProbe struct {
	tw *traceWriter

	intervalStart uint64 // start cycle of the open checkpoint interval

	ckptBeginCycle uint64
	ckptInFlight   bool

	offCycle uint64 // cycle of the last power failure
	off      bool

	nvmReadBytes, nvmWriteBytes uint64

	finished bool
}

// Track (thread) ids; metadata events name them in the viewer.
const (
	tidIntervals = 1
	tidFlush     = 2
	tidPower     = 3
	tidWriteBack = 4
)

// cyclesPerMicro converts the modelled clock to trace microseconds (the
// trace-event ts unit), so the viewer's time axis is simulated time.
const cyclesPerMicro = mem.ClockHz / 1e6

// NewTraceEventProbe starts a trace-event stream on w. The caller must call
// Finish exactly once after the run; until then the written JSON is
// incomplete.
func NewTraceEventProbe(w io.Writer) *TraceEventProbe {
	t := &TraceEventProbe{tw: newTraceWriter(w, "nacho simulation")}
	t.tw.thread(tidIntervals, "checkpoint intervals")
	t.tw.thread(tidFlush, "checkpoint flush")
	t.tw.thread(tidPower, "power")
	t.tw.thread(tidWriteBack, "write-backs")
	return t
}

// event appends one JSON object; events after Finish are dropped.
func (t *TraceEventProbe) event(format string, args ...any) {
	if !t.finished {
		t.tw.event(format, args...)
	}
}

// ts renders a cycle count as trace microseconds.
func ts(cycle uint64) float64 { return float64(cycle) / cyclesPerMicro }

// slice emits a complete ("X") duration event.
func (t *TraceEventProbe) slice(tid int, name string, start, end uint64, args string) {
	if end < start {
		end = start
	}
	t.event(`{"ph":"X","pid":1,"tid":%d,"name":%q,"ts":%.3f,"dur":%.3f,"args":{%s}}`,
		tid, name, ts(start), ts(end-start), args)
}

// nvmCounter samples the cumulative NVM traffic counter track.
func (t *TraceEventProbe) nvmCounter(cycle uint64) {
	t.event(`{"ph":"C","pid":1,"name":"nvm traffic","ts":%.3f,"args":{"read bytes":%d,"written bytes":%d}}`,
		ts(cycle), t.nvmReadBytes, t.nvmWriteBytes)
}

// closeInterval emits the open checkpoint interval as a slice and starts the
// next one at end.
func (t *TraceEventProbe) closeInterval(name string, end uint64, args string) {
	t.slice(tidIntervals, name, t.intervalStart, end, args)
	t.intervalStart = end
	t.nvmCounter(end)
}

// OnWriteBack implements sim.Probe.
func (t *TraceEventProbe) OnWriteBack(e sim.WriteBackEvent) {
	t.event(`{"ph":"i","pid":1,"tid":%d,"name":%q,"ts":%.3f,"s":"t","args":{"addr":"0x%08x","size":%d}}`,
		tidWriteBack, e.Verdict.String(), ts(e.Cycle), e.Addr, e.Size)
}

// OnCheckpointBegin implements sim.Probe.
func (t *TraceEventProbe) OnCheckpointBegin(e sim.CheckpointEvent) {
	t.ckptBeginCycle, t.ckptInFlight = e.Cycle, true
}

// OnCheckpointCommit implements sim.Probe.
func (t *TraceEventProbe) OnCheckpointCommit(e sim.CheckpointEvent) {
	if t.ckptInFlight {
		t.slice(tidFlush, "flush", t.ckptBeginCycle, e.Cycle, fmt.Sprintf(`"lines":%d`, e.Lines))
		t.ckptInFlight = false
	}
	args := fmt.Sprintf(`"lines":%d,"forced":%t,"adaptive":%t`, e.Lines, e.Forced, e.Adaptive)
	t.closeInterval(e.Kind.String(), e.Cycle, args)
}

// OnPowerFailure implements sim.Probe.
func (t *TraceEventProbe) OnPowerFailure(e sim.PowerEvent) {
	if t.ckptInFlight {
		t.slice(tidFlush, "aborted", t.ckptBeginCycle, e.Cycle, `"aborted":true`)
		t.ckptInFlight = false
	}
	t.closeInterval("power-failure", e.Cycle, `"lost":true`)
	t.offCycle, t.off = e.Cycle, true
}

// OnRestore implements sim.Probe.
func (t *TraceEventProbe) OnRestore(e sim.RestoreEvent) {
	start := t.offCycle
	if !t.off {
		// Restore without an observed failure (probe attached mid-run):
		// render just the restore sequence.
		start = e.Cycle - e.Cycles
	}
	t.off = false
	t.slice(tidPower, "outage+restore", start, e.Cycle,
		fmt.Sprintf(`"restore cycles":%d,"from checkpoint":%t`, e.Cycles, e.OK))
	// Execution resumes at the restore's completion; account the replayed
	// stretch to the interval that reopened at the failure instant.
}

// OnNVM implements sim.Probe.
func (t *TraceEventProbe) OnNVM(e sim.NVMEvent) {
	if e.Write {
		t.nvmWriteBytes += uint64(e.Bytes)
	} else {
		t.nvmReadBytes += uint64(e.Bytes)
	}
}

// Finish closes the tail interval at the run's final cycle, terminates the
// JSON document and flushes. It returns the first error encountered anywhere
// in the stream. Events after Finish are dropped.
func (t *TraceEventProbe) Finish(finalCycle uint64) error {
	if t.finished {
		return t.tw.err
	}
	if finalCycle > t.intervalStart {
		t.closeInterval("end-of-run", finalCycle, `"end_of_run":true`)
	}
	t.finished = true
	return t.tw.close()
}
