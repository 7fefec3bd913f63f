package harness

import (
	"strings"
	"testing"

	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/systems"
	"nacho/internal/telemetry"
)

func mustProgram(t testing.TB, name string) *program.Program {
	t.Helper()
	p, ok := program.ByName(name)
	if !ok {
		t.Fatalf("%s benchmark missing", name)
	}
	return p
}

// TestPoolAccounting asserts every run — cached-path or not — lands in the
// process-wide pool counters that /metrics and /status read.
func TestPoolAccounting(t *testing.T) {
	before := Status()
	res, err := Run(mustProgram(t, "crc"), systems.KindNACHO, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	after := Status()
	if got := after.RunsStarted - before.RunsStarted; got != 1 {
		t.Errorf("runs started delta = %d, want 1", got)
	}
	if got := after.RunsCompleted - before.RunsCompleted; got != 1 {
		t.Errorf("runs completed delta = %d, want 1", got)
	}
	if got := after.SimulatedCycles - before.SimulatedCycles; got != res.Counters.Cycles {
		t.Errorf("simulated cycles delta = %d, want %d", got, res.Counters.Cycles)
	}
	if after.SimulatedCyclesPerSec <= 0 {
		t.Errorf("cycles/sec = %g, want > 0 after a run", after.SimulatedCyclesPerSec)
	}
}

// TestRunCacheCountsBypassAndHits pins the cache-path accounting: probed runs
// bypass (and are counted as such), repeated unprobed runs hit.
func TestRunCacheCountsBypassAndHits(t *testing.T) {
	p := mustProgram(t, "crc")
	cfg := DefaultRunConfig()
	beforeBypass := pool.cacheBypassed.Load()
	beforeHits := pool.cacheHits.Load()

	ResetRunCache()
	tl := newTally()
	probed := cfg
	probed.Probe = sim.NewCounterProbe()
	if _, err := tl.get(p, systems.KindNACHO, probed); err != nil {
		t.Fatal(err)
	}
	if tl.bypassed != 1 {
		t.Errorf("tl.bypassed = %d, want 1", tl.bypassed)
	}
	if got := pool.cacheBypassed.Load() - beforeBypass; got != 1 {
		t.Errorf("pool bypass delta = %d, want 1", got)
	}

	if _, err := tl.get(p, systems.KindNACHO, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.get(p, systems.KindNACHO, cfg); err != nil {
		t.Fatal(err)
	}
	if tl.runs != 1 || tl.hits != 1 {
		t.Errorf("runs=%d hits=%d, want 1/1", tl.runs, tl.hits)
	}
	if got := pool.cacheHits.Load() - beforeHits; got != 1 {
		t.Errorf("pool hit delta = %d, want 1", got)
	}
}

// TestTimingReportsBypassedRuns asserts the previously silent cache bypass
// for probed runs is surfaced in the Timing line.
func TestTimingReportsBypassedRuns(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	p := mustProgram(t, "crc")
	probed := DefaultRunConfig()
	probed.Probe = sim.NewCounterProbe()
	rep, err := regenerate(func(tl *tally) (*Report, error) {
		if _, err := tl.get(p, systems.KindNACHO, probed); err != nil {
			return nil, err
		}
		if _, err := tl.get(p, systems.KindNACHO, DefaultRunConfig()); err != nil {
			return nil, err
		}
		return &Report{Title: "bypass probe"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Timing, "1 probed runs bypassed the run cache") {
		t.Errorf("Timing does not surface the bypass: %q", rep.Timing)
	}

	plain, err := regenerate(func(tl *tally) (*Report, error) {
		if _, err := tl.get(p, systems.KindNACHO, DefaultRunConfig()); err != nil {
			return nil, err
		}
		return &Report{Title: "no bypass"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.Timing, "bypassed") {
		t.Errorf("Timing mentions a bypass without probed runs: %q", plain.Timing)
	}
}

// TestRegisterMetrics asserts the harness series land in a registry and carry
// the live pool values.
func TestRegisterMetrics(t *testing.T) {
	if _, err := Run(mustProgram(t, "crc"), systems.KindVolatile, DefaultRunConfig()); err != nil {
		t.Fatal(err)
	}
	r := telemetry.NewRegistry()
	RegisterMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, name := range []string{
		"nacho_harness_runs_started_total",
		"nacho_harness_runs_completed_total",
		"nacho_harness_cache_hits_total",
		"nacho_harness_cache_bypassed_probed_total",
		"nacho_harness_simulated_cycles_total",
		"nacho_harness_workers",
		"nacho_harness_workers_busy",
		"nacho_harness_experiment_jobs",
		"nacho_harness_experiment_jobs_done",
		"nacho_harness_simulated_cycles_per_sec",
	} {
		if !strings.Contains(text, "\n"+name+" ") {
			t.Errorf("exposition missing %s:\n%s", name, text)
		}
	}
	st := Status()
	if st.RunsCompleted == 0 || st.SimulatedCycles == 0 {
		t.Errorf("status after a run: %+v", st)
	}
}
