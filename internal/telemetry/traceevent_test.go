package telemetry

import (
	"encoding/json"
	"strings"
	"testing"

	"nacho/internal/sim"
)

// feedOneOfEach drives every probe hook once with distinguishable payloads.
func feedOneOfEach(p sim.Probe) {
	p.OnWriteBack(sim.WriteBackEvent{Cycle: 50, Addr: 0x200, Size: 16, Verdict: sim.VerdictSafe})
	p.OnWriteBack(sim.WriteBackEvent{Cycle: 55, Addr: 0x210, Size: 16, Verdict: sim.VerdictUnsafe})
	p.OnCheckpointBegin(sim.CheckpointEvent{Cycle: 60, Lines: 3})
	p.OnCheckpointCommit(sim.CheckpointEvent{
		Cycle: 80, Kind: sim.CheckpointCommit, Lines: 3, Forced: true,
		Interval: 80, IntervalValid: true,
	})
	p.OnCheckpointCommit(sim.CheckpointEvent{Cycle: 90, Kind: sim.CheckpointRegion})
	p.OnPowerFailure(sim.PowerEvent{Cycle: 100})
	p.OnRestore(sim.RestoreEvent{Cycle: 160, Cycles: 60, OK: true})
	p.OnRestore(sim.RestoreEvent{Cycle: 170, Cycles: 5, OK: false})
	p.OnNVM(sim.NVMEvent{Cycle: 30, Addr: 0x108, Bytes: 4, Write: false})
	p.OnNVM(sim.NVMEvent{Cycle: 80, Addr: 0x200, Bytes: 48, Write: true})
}

// traceDoc mirrors the Chrome trace-event JSON object format.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Name string         `json:"name"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func renderTrace(t *testing.T, drive func(p *TraceEventProbe), finalCycle uint64) traceDoc {
	t.Helper()
	var out strings.Builder
	p := NewTraceEventProbe(&out)
	drive(p)
	if err := p.Finish(finalCycle); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, out.String())
	}
	return doc
}

// eventsNamed returns the events with the given phase and name.
func eventsNamed(doc traceDoc, ph, name string) []traceEvent {
	var out []traceEvent
	for _, e := range doc.TraceEvents {
		if e.Ph == ph && e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

func TestTraceEventProbe(t *testing.T) {
	doc := renderTrace(t, func(p *TraceEventProbe) {
		feedOneOfEach(p)
	}, 500)

	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	// Track metadata: a process name and four named threads.
	if got := eventsNamed(doc, "M", "process_name"); len(got) != 1 {
		t.Fatalf("want 1 process_name metadata event, got %d", len(got))
	}
	threads := map[string]bool{}
	for _, e := range eventsNamed(doc, "M", "thread_name") {
		threads[e.Args["name"].(string)] = true
	}
	for _, want := range []string{"checkpoint intervals", "checkpoint flush", "power", "write-backs"} {
		if !threads[want] {
			t.Errorf("missing thread_name metadata for track %q (have %v)", want, threads)
		}
	}

	// Checkpoint intervals: feedOneOfEach commits at cycle 80 (commit kind),
	// a region boundary at 90, a power failure at 100, and Finish(500) closes
	// the tail. Four interval slices on the intervals track.
	intervals := []traceEvent{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Tid == tidIntervals {
			intervals = append(intervals, e)
		}
	}
	if len(intervals) != 4 {
		t.Fatalf("want 4 interval slices, got %d: %+v", len(intervals), intervals)
	}
	wantIntervals := []struct {
		name       string
		start, dur float64 // trace microseconds at 50 cycles/us
	}{
		{"commit", 0, 80.0 / 50},
		{"region", 80.0 / 50, 10.0 / 50},
		{"power-failure", 90.0 / 50, 10.0 / 50},
		{"end-of-run", 100.0 / 50, 400.0 / 50},
	}
	for i, w := range wantIntervals {
		e := intervals[i]
		if e.Name != w.name || e.Ts != w.start || e.Dur != w.dur {
			t.Errorf("interval %d = {%s ts=%g dur=%g}, want {%s ts=%g dur=%g}",
				i, e.Name, e.Ts, e.Dur, w.name, w.start, w.dur)
		}
	}
	if args := intervals[0].Args; args["lines"].(float64) != 3 || args["forced"].(bool) != true {
		t.Errorf("commit interval args wrong: %v", args)
	}

	// The staged checkpoint (begin 60 -> commit 80) renders as a flush slice.
	flushes := eventsNamed(doc, "X", "flush")
	if len(flushes) != 1 || flushes[0].Tid != tidFlush || flushes[0].Ts != 60.0/50 || flushes[0].Dur != 20.0/50 {
		t.Errorf("flush slices = %+v, want one at ts=1.2 dur=0.4", flushes)
	}

	// Write-back verdicts as instants.
	if got := eventsNamed(doc, "i", "safe"); len(got) != 1 || got[0].Tid != tidWriteBack {
		t.Errorf("safe write-back instants = %+v, want 1 on the write-back track", got)
	}
	if got := eventsNamed(doc, "i", "unsafe"); len(got) != 1 {
		t.Errorf("unsafe write-back instants = %+v, want 1", got)
	}

	// Power outage: failure at 100, restore completed at 160.
	outages := eventsNamed(doc, "X", "outage+restore")
	if len(outages) != 2 {
		t.Fatalf("want 2 outage slices (one OK restore, one cold), got %d", len(outages))
	}
	if outages[0].Ts != 100.0/50 || outages[0].Dur != 60.0/50 {
		t.Errorf("outage slice = ts=%g dur=%g, want ts=2 dur=1.2", outages[0].Ts, outages[0].Dur)
	}
	if outages[0].Args["restore cycles"].(float64) != 60 {
		t.Errorf("outage args = %v, want restore cycles 60", outages[0].Args)
	}

	// NVM counter track sampled at each persistence point; the final sample
	// carries the cumulative byte totals from feedOneOfEach.
	counters := eventsNamed(doc, "C", "nvm traffic")
	if len(counters) == 0 {
		t.Fatal("no nvm traffic counter samples")
	}
	last := counters[len(counters)-1]
	if last.Args["read bytes"].(float64) != 4 || last.Args["written bytes"].(float64) != 48 {
		t.Errorf("final nvm counter sample = %v, want read 4 / written 48", last.Args)
	}
}

func TestTraceEventProbeAbortedFlush(t *testing.T) {
	doc := renderTrace(t, func(p *TraceEventProbe) {
		p.OnCheckpointBegin(sim.CheckpointEvent{Cycle: 100, Lines: 5})
		p.OnPowerFailure(sim.PowerEvent{Cycle: 130})
		p.OnRestore(sim.RestoreEvent{Cycle: 150, Cycles: 20, OK: false})
	}, 200)

	aborted := eventsNamed(doc, "X", "aborted")
	if len(aborted) != 1 || aborted[0].Tid != tidFlush {
		t.Fatalf("aborted flush slices = %+v, want exactly 1 on the flush track", aborted)
	}
	if aborted[0].Ts != 100.0/50 || aborted[0].Dur != 30.0/50 {
		t.Errorf("aborted flush = ts=%g dur=%g, want ts=2 dur=0.6", aborted[0].Ts, aborted[0].Dur)
	}
	// No committed flush slice, and the power failure closed the interval.
	if got := eventsNamed(doc, "X", "flush"); len(got) != 0 {
		t.Errorf("unexpected committed flush slices: %+v", got)
	}
	if got := eventsNamed(doc, "X", "power-failure"); len(got) != 1 {
		t.Errorf("power-failure interval slices = %+v, want 1", got)
	}
}

func TestTraceEventProbeEmptyRun(t *testing.T) {
	// No events and a zero final cycle: still a valid, loadable document.
	doc := renderTrace(t, func(p *TraceEventProbe) {}, 0)
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			t.Errorf("unexpected non-metadata event in empty trace: %+v", e)
		}
	}
}

func TestTraceEventProbeFinishIdempotent(t *testing.T) {
	var out strings.Builder
	p := NewTraceEventProbe(&out)
	p.OnCheckpointCommit(sim.CheckpointEvent{Cycle: 50, Kind: sim.CheckpointCommit, Lines: 1})
	if err := p.Finish(100); err != nil {
		t.Fatal(err)
	}
	doc1 := out.String()
	// Late events and a second Finish must not corrupt the document.
	p.OnCheckpointCommit(sim.CheckpointEvent{Cycle: 999, Kind: sim.CheckpointCommit})
	if err := p.Finish(1000); err != nil {
		t.Fatal(err)
	}
	if out.String() != doc1 {
		t.Errorf("document changed after Finish:\n%s\nvs\n%s", doc1, out.String())
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("invalid JSON after double Finish: %v", err)
	}
}
