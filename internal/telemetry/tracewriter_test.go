package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nacho/internal/sim"
)

// checkGolden compares got byte for byte against testdata/name. The goldens
// were rendered by the two hand-rolled writers that traceWriter replaced,
// so they pin the merge to the old output.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestTraceEventProbeGolden pins the single-run trace writer's exact bytes —
// header, metadata, separators, every event shape, footer — on a fixed probe
// event sequence.
func TestTraceEventProbeGolden(t *testing.T) {
	var out strings.Builder
	p := NewTraceEventProbe(&out)
	feedOneOfEach(p)
	// A staging window cut short by a power failure, then a second outage.
	p.OnCheckpointBegin(sim.CheckpointEvent{Cycle: 200, Lines: 2})
	p.OnPowerFailure(sim.PowerEvent{Cycle: 210})
	p.OnRestore(sim.RestoreEvent{Cycle: 260, Cycles: 40, OK: true})
	if err := p.Finish(500); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "traceevent_golden.json", out.String())
}

// TestWriteTraceGolden pins the campaign trace writer's exact bytes on a
// fixed span set: nested kinds, two overlapping runs spread across lanes, a
// span without a name, and one still open (closed at the last timestamp).
func TestWriteTraceGolden(t *testing.T) {
	const t0 = int64(1_700_000_000_000_000_000)
	spans := []Span{
		{ID: 1, Kind: SpanCampaign, Name: "golden", Start: t0, End: t0 + 9_000_000},
		{ID: 2, Parent: 1, Kind: SpanCell, Name: "fig5", Start: t0 + 1_000, End: t0 + 8_000_000, N1: 2, N2: 1},
		{ID: 3, Parent: 2, Kind: SpanRun, Name: "crc", System: "nacho", Engine: "ref", Start: t0 + 2_000, End: t0 + 4_000_500, N1: 12345},
		{ID: 4, Parent: 2, Kind: SpanRun, Name: "sha", System: "clank", Engine: "aot", Start: t0 + 3_000, End: t0 + 5_000_000, N1: 678, Err: true},
		{ID: 5, Parent: 2, Kind: SpanRun, System: "volatile", Engine: "aot", Start: t0 + 4_100_000, End: t0 + 6_000_000},
		{ID: 6, Parent: 3, Kind: SpanWindow, Name: "window", Start: t0 + 2_500, N1: 7},
	}
	var out strings.Builder
	if err := writeSpanTrace(&out, spans); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "spantrace_golden.json", out.String())
}
