package harness_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"nacho/internal/harness"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// traceCounter counts the lines and reboot markers of a rendered trace
// without keeping it. The recorder writes whole lines per chunk, so no
// marker straddles two writes.
type traceCounter struct {
	lines, markers int
}

var rebootMarker = []byte("-- power failure, rebooting --\n")

func (c *traceCounter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte("\n"))
	c.markers += bytes.Count(p, rebootMarker)
	return len(p), nil
}

// TestTraceCompleteness pins the trace's own feed from the emulator: a run
// traced through RunConfig.Trace renders exactly one line per retired
// instruction (Counters.Instructions, which no probe derives) and one reboot
// marker per power failure. A traced run executes on the reference
// interpreter, the one engine whose step feeds the trace, so a traced run
// left on the AOT engine would render only its reference steps and fail the
// count. Tracing must not perturb the run: the traced result equals the
// untraced result, which runs on the AOT engine.
func TestTraceCompleteness(t *testing.T) {
	for _, name := range []string{"crc", "towers"} {
		p, ok := program.ByName(name)
		if !ok {
			t.Fatalf("%s benchmark missing", name)
		}
		img, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []systems.Kind{systems.KindNACHO, systems.KindClank} {
			cfg := harness.DefaultRunConfig()
			const onDuration = 60_000
			cfg.Schedule = power.Periodic{Period: onDuration}
			cfg.ForcedCheckpointPeriod = onDuration / 2
			plain, _, err := harness.RunImageSys(img, kind, cfg, true)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, kind, err)
			}
			var tc traceCounter
			cfg.Trace = &tc
			traced, _, err := harness.RunImageSys(img, kind, cfg, true)
			if err != nil {
				t.Fatalf("%s on %s traced: %v", name, kind, err)
			}
			if traced.Counters.PowerFailures == 0 {
				t.Fatalf("%s on %s: no power failure; the markers go unchecked", name, kind)
			}
			if got, want := uint64(tc.lines-tc.markers), traced.Counters.Instructions; got != want {
				t.Errorf("%s on %s: trace has %d instruction lines, run retired %d", name, kind, got, want)
			}
			if got, want := uint64(tc.markers), traced.Counters.PowerFailures; got != want {
				t.Errorf("%s on %s: trace has %d reboot markers, run had %d power failures", name, kind, got, want)
			}
			if !reflect.DeepEqual(traced, plain) {
				t.Errorf("%s on %s: traced result differs from untraced:\n  traced: %+v\n  plain:  %+v", name, kind, traced, plain)
			}
		}
	}
}

// fullDisk refuses every write.
type fullDisk struct{}

var errFullDisk = errors.New("no space left on device")

func (fullDisk) Write([]byte) (int, error) { return 0, errFullDisk }

// TestTraceWriteError checks that a run whose trace cannot be written fails
// with the write error, and that the failure is not cached: the same run
// untraced succeeds.
func TestTraceWriteError(t *testing.T) {
	p, ok := program.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	cfg := harness.DefaultRunConfig()
	cfg.Trace = fullDisk{}
	if _, err := harness.Run(p, systems.KindNACHO, cfg); !errors.Is(err, errFullDisk) {
		t.Fatalf("traced run: err = %v, want %v", err, errFullDisk)
	}
	cfg.Trace = nil
	if _, err := harness.Run(p, systems.KindNACHO, cfg); err != nil {
		t.Fatalf("untraced run: %v", err)
	}
}
