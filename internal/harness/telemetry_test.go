package harness

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nacho/internal/metrics"
	"nacho/internal/power"
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

// seriesField names the metrics.Counters field behind each series of the
// simulated sum; "IntervalHist[i]" is one bucket of the interval histogram.
var seriesField = map[string]string{
	"nacho_harness_simulated_cycles_total":                    "Cycles",
	"nacho_sim_instructions_total":                            "Instructions",
	"nacho_sim_loads_total":                                   "Loads",
	"nacho_sim_stores_total":                                  "Stores",
	"nacho_sim_checkpoints_total":                             "Checkpoints",
	"nacho_sim_checkpoint_lines_total":                        "CheckpointLines",
	"nacho_sim_checkpoint_lines_max":                          "MaxCheckpointLines",
	"nacho_sim_checkpoints_forced_total":                      "ForcedCkpts",
	"nacho_sim_checkpoints_adaptive_total":                    "AdaptiveCkpts",
	"nacho_sim_nvm_reads_total":                               "NVMReads",
	"nacho_sim_nvm_writes_total":                              "NVMWrites",
	"nacho_sim_nvm_read_bytes_total":                          "NVMReadBytes",
	"nacho_sim_nvm_write_bytes_total":                         "NVMWriteBytes",
	`nacho_sim_accesses_total{class="hit"}`:                   "CacheHits",
	`nacho_sim_accesses_total{class="miss"}`:                  "CacheMisses",
	"nacho_sim_evictions_total":                               "Evictions",
	`nacho_sim_writebacks_total{verdict="safe"}`:              "SafeEvictions",
	`nacho_sim_writebacks_total{verdict="unsafe"}`:            "UnsafeEvictions",
	`nacho_sim_writebacks_total{verdict="dropped-stack"}`:     "DroppedStackLines",
	"nacho_sim_regions_total":                                 "Regions",
	`nacho_sim_checkpoint_intervals_total{cycles="<1k"}`:      "IntervalHist[0]",
	`nacho_sim_checkpoint_intervals_total{cycles="1k-10k"}`:   "IntervalHist[1]",
	`nacho_sim_checkpoint_intervals_total{cycles="10k-100k"}`: "IntervalHist[2]",
	`nacho_sim_checkpoint_intervals_total{cycles=">=100k"}`:   "IntervalHist[3]",
	"nacho_sim_power_failures_total":                          "PowerFailures",
	"nacho_sim_restore_cycles_total":                          "RestoreCycles",
}

// fieldValue reads the counter a seriesField entry names.
func fieldValue(c metrics.Counters, field string) uint64 {
	name, idx, isBucket := strings.Cut(strings.TrimSuffix(field, "]"), "[")
	v := reflect.ValueOf(c).FieldByName(name)
	if isBucket {
		i, _ := strconv.Atoi(idx)
		v = v.Index(i)
	}
	return v.Uint()
}

// simSamples reads every sample of a registry holding the harness metrics,
// and flags a nacho_sim_* series that seriesField does not map.
func simSamples(t *testing.T, r *telemetry.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if _, known := seriesField[series]; !known && strings.HasPrefix(series, "nacho_sim_") {
			t.Errorf("series %s has no metrics.Counters field in seriesField", series)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// TestSimSeriesSumExecutedRuns: the nacho_sim_* series, and
// nacho_harness_simulated_cycles_total, grow by exactly the counters of the
// runs the harness executed, each field into its one series, and runs
// served from the run cache or the store add nothing. The matrix runs
// concurrently, so the race pass covers the fold, and it makes every field
// non-zero.
func TestSimSeriesSumExecutedRuns(t *testing.T) {
	fields := map[string]int{}
	for _, f := range seriesField {
		fields[f]++
	}
	ct := reflect.TypeOf(metrics.Counters{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		names := []string{f.Name}
		if f.Type.Kind() == reflect.Array {
			names = names[:0]
			for j := 0; j < f.Type.Len(); j++ {
				names = append(names, fmt.Sprintf("%s[%d]", f.Name, j))
			}
		}
		for _, n := range names {
			if fields[n] != 1 {
				t.Errorf("metrics.Counters.%s backs %d series, want exactly 1", n, fields[n])
			}
		}
	}

	r := telemetry.NewRegistry()
	RegisterMetrics(r)

	periodic := DefaultRunConfig()
	periodic.Schedule = power.Periodic{Period: 20000}
	periodic.ForcedCheckpointPeriod = 10000
	adaptive := DefaultRunConfig()
	adaptive.DirtyThreshold = 2
	wrongGolden, err := program.FromSource("wrong-golden", `
_start:
	li   t0, 42
	li   t1, 0x000F0004
	sw   t0, (t1)
	li   t1, 0x000F0000
	sw   zero, (t1)
`)
	if err != nil {
		t.Fatal(err)
	}
	crc, err := mustProgram(t, "crc").Build()
	if err != nil {
		t.Fatal(err)
	}
	matrix := []struct {
		img     *program.Image
		kind    systems.Kind
		cfg     RunConfig
		wantErr bool
	}{
		{crc, systems.KindNACHO, DefaultRunConfig(), false},
		{crc, systems.KindNACHO, periodic, false},
		{crc, systems.KindNACHO, adaptive, false},
		{crc, systems.KindReplayCache, periodic, false},
		{wrongGolden, systems.KindNACHO, DefaultRunConfig(), true}, // result 42, reference 0
	}

	before := simSamples(t, r)
	runs := make([]metrics.Counters, len(matrix))
	var wg sync.WaitGroup
	for i, m := range matrix {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunImage(m.img, m.kind, m.cfg, true)
			if (err != nil) != m.wantErr {
				t.Errorf("run %d (%s on %s): err = %v, want error %v", i, m.img.Program.Name, m.kind, err, m.wantErr)
			}
			runs[i] = res.Counters
		}()
	}
	wg.Wait()
	after := simSamples(t, r)

	for series, field := range seriesField {
		var sum, peak uint64
		for _, c := range runs {
			v := fieldValue(c, field)
			sum += v
			peak = max(peak, v)
		}
		if sum == 0 {
			t.Errorf("the matrix leaves %s at 0, so it does not cover %s", series, field)
		}
		if field == "MaxCheckpointLines" {
			if want := max(before[series], float64(peak)); after[series] != want {
				t.Errorf("%s = %g, want %g (the running maximum)", series, after[series], want)
			}
			continue
		}
		if got := after[series] - before[series]; got != float64(sum) {
			t.Errorf("%s grew by %g, want %d (the executed runs' %s)", series, got, sum, field)
		}
	}
	if got := after["nacho_harness_runs_completed_total"] - before["nacho_harness_runs_completed_total"]; got != float64(len(matrix)) {
		t.Errorf("runs completed grew by %g, want %d", got, len(matrix))
	}

	// Served runs simulate nothing, so they add nothing: a regeneration whose
	// every run is a cache hit, and a run served from a warm store.
	assertNoGrowth := func(what string, from map[string]float64) {
		t.Helper()
		to := simSamples(t, r)
		for series := range seriesField {
			if to[series] != from[series] {
				t.Errorf("%s moved %s from %g to %g", what, series, from[series], to[series])
			}
		}
	}
	if _, err := RunNamedExperiment("fig6", []string{"crc"}); err != nil {
		t.Fatal(err)
	}
	cached := simSamples(t, r)
	if _, err := RunNamedExperiment("fig6", []string{"crc"}); err != nil {
		t.Fatal(err)
	}
	assertNoGrowth("regenerating fig6 from the run cache", cached)

	withStore(t)
	if _, err := Run(mustProgram(t, "crc"), systems.KindClank, periodic); err != nil {
		t.Fatal(err)
	}
	stored := simSamples(t, r)
	if _, err := Run(mustProgram(t, "crc"), systems.KindClank, periodic); err != nil {
		t.Fatal(err)
	}
	assertNoGrowth("a run served from the store", stored)
}
