package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"nacho/internal/telemetry"
)

// metricDef is one metric the benchmark prints.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run. ops and ops_failed are the
// result's attempted and failed counts.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"sim_mhz", "MHz"},
}

// selfModules are the modules whose CPU self time a traced run reports; a
// sample folded to any other module counts toward other.self_s.
var selfModules = []string{
	"emu", "mem", "verify", "track", "core", "cache", "checkpoint", "systems",
	"power", "harness", "fuzzer", "snapshot", "asm", "isa", "compile",
	"telemetry",
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range selfModules {
		defs = append(defs, metricDef{m + ".self_s", "s"})
	}
	return append(defs, []metricDef{
		{"other.self_s", "s"},
		{"runtime.gc_s", "s"},
		{"profile.total_s", "s"},
		{"emu.runs_ref", "count"},
		{"emu.runs_aot", "count"},
		{"emu.instr_ref", "count"},
		{"emu.instr_aot", "count"},
		{"harness.runs", "count"},
		{"harness.unique_cells", "count"},
		{"harness.cache_hits", "count"},
		{"harness.run_ms_p50", "ms"},
		{"harness.run_ms_tail", "ms"},
		{"harness.run_tail_pct", "%"},
		{"fuzzer.programs", "count"},
		{"fuzzer.oracle_runs", "count"},
		{"fuzzer.seed_ms_p50", "ms"},
		{"fuzzer.seed_ms_tail", "ms"},
		{"fuzzer.seed_tail_pct", "%"},
		{"snapshot.instants", "count"},
		{"snapshot.windows", "count"},
		{"snapshot.fork_mcycles", "Mcycles"},
		{"snapshot.speedup", "x"},
		{"snapshot.instant_us", "us"},
		{"program.build_s", "s"},
		{"runtime.alloc_mb", "MiB"},
		{"runtime.gc_cycles", "count"},
		{"telemetry.trace_overhead", "x"},
		{"telemetry.spans_dropped", "count"},
	}...)
}()

// readCounters reads every counter and gauge in reg, keyed by name plus its
// labels in Prometheus form, e.g. nacho_harness_engine_runs_total{engine="aot"}.
func readCounters(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if s.Histogram != nil {
			continue
		}
		out[s.Name+renderLabels(s.Labels)] = s.Value
	}
	return out
}

func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Runtime counters read around the timed phase.
const (
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricGCCycles   = "/gc/cycles/total:gc-cycles"
)

// phaseMark is the process state at one edge of the timed phase.
type phaseMark struct {
	at         time.Time
	cpu        time.Duration // user + system CPU time of the process
	counters   map[string]float64
	allocBytes uint64
	gcCycles   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readRuntime(m *phaseMark) {
	s := []metrics.Sample{{Name: metricAllocBytes}, {Name: metricGCCycles}}
	metrics.Read(s)
	m.allocBytes = s[0].Value.Uint64()
	m.gcCycles = s[1].Value.Uint64()
}

// markStart records the state just before the timed phase: the clocks last.
func markStart(reg *telemetry.Registry) phaseMark {
	m := phaseMark{counters: readCounters(reg)}
	readRuntime(&m)
	m.cpu = cpuTime()
	m.at = time.Now()
	return m
}

// markEnd records the state just after the timed phase: the clocks first.
func markEnd(reg *telemetry.Registry) phaseMark {
	m := phaseMark{at: time.Now(), cpu: cpuTime()}
	m.counters = readCounters(reg)
	readRuntime(&m)
	return m
}

// traceInputs is what a traced run recorded besides its counters.
type traceInputs struct {
	profile   []stackSample
	spans     []telemetry.Span
	ledger    []telemetry.Record
	buildSpan telemetry.SpanID
	seedSpans []telemetry.SpanID
	dropped   uint64
}

// runIdentity is a ledger record's run identity, the fields the harness run
// cache keys on that vary in these workloads.
type runIdentity struct {
	program, system, schedule string
	cache, ways               int
}

// layerMetrics derives the per-layer metrics of a traced run from the
// counter deltas over its timed phase, its CPU profile folded by module, its
// spans and its ledger. It also returns the cycles of each distinct run
// identity summed once, the paper's sim_mhz numerator.
func layerMetrics(start, end phaseMark, in traceInputs) (map[string]float64, uint64) {
	m := map[string]float64{}
	delta := func(name string) float64 { return end.counters[name] - start.counters[name] }

	folded := foldProfile(in.profile)
	var total float64
	for _, v := range folded {
		total += v
	}
	m["profile.total_s"] = total
	m["runtime.gc_s"] = folded[bucketGC]
	other := total - folded[bucketGC]
	for _, mod := range selfModules {
		m[mod+".self_s"] = folded[mod]
		other -= folded[mod]
	}
	m["other.self_s"] = max(other, 0)

	for _, e := range []string{"ref", "aot"} {
		m["emu.runs_"+e] = delta(`nacho_harness_engine_runs_total{engine="` + e + `"}`)
		m["emu.instr_"+e] = delta(`nacho_harness_engine_instructions_total{engine="` + e + `"}`)
	}

	var runMillis []float64
	cells := map[runIdentity]uint64{}
	m["harness.cache_hits"] = 0
	for _, r := range in.ledger {
		cells[runIdentity{r.Program, r.System, r.Schedule, r.Cache, r.Ways}] = r.Cycles
		switch r.Outcome {
		case "cache-hit":
			m["harness.cache_hits"]++
		case "ok", "error":
			runMillis = append(runMillis, float64(r.WallMicros)/1e3)
		}
	}
	var cellCycles uint64
	for _, c := range cells {
		cellCycles += c
	}
	m["harness.runs"] = float64(len(runMillis))
	m["harness.unique_cells"] = float64(len(cells))
	m["harness.run_ms_p50"] = median(runMillis)
	m["harness.run_ms_tail"], m["harness.run_tail_pct"], _ = tail(runMillis)

	byID := map[telemetry.SpanID]telemetry.Span{}
	var windowNanos int64
	for _, s := range in.spans {
		byID[s.ID] = s
		if s.Kind == telemetry.SpanWindow && s.End != 0 {
			windowNanos += s.End - s.Start
		}
	}
	dur := func(id telemetry.SpanID) float64 {
		s, ok := byID[id]
		if !ok || s.End == 0 {
			return 0
		}
		return float64(s.End-s.Start) / 1e9
	}
	m["program.build_s"] = dur(in.buildSpan)
	var seedMillis []float64
	for _, id := range in.seedSpans {
		seedMillis = append(seedMillis, dur(id)*1e3)
	}
	m["fuzzer.programs"] = delta("nacho_fuzz_programs_total")
	m["fuzzer.oracle_runs"] = delta("nacho_fuzz_oracle_runs_total")
	m["fuzzer.seed_ms_p50"] = median(seedMillis)
	m["fuzzer.seed_ms_tail"], m["fuzzer.seed_tail_pct"], _ = tail(seedMillis)

	instants := delta("nacho_snapshot_instants_total")
	paid := delta("nacho_snapshot_scout_cycles_total") + delta("nacho_snapshot_prefix_cycles_total") + delta("nacho_snapshot_fork_cycles_total")
	m["snapshot.instants"] = instants
	m["snapshot.windows"] = delta("nacho_snapshot_windows_total")
	m["snapshot.fork_mcycles"] = delta("nacho_snapshot_fork_cycles_total") / 1e6
	m["snapshot.speedup"], m["snapshot.instant_us"] = 0, 0
	if paid > 0 {
		m["snapshot.speedup"] = delta("nacho_snapshot_boot_cycles_total") / paid
	}
	if instants > 0 {
		m["snapshot.instant_us"] = float64(windowNanos) / 1e3 / instants
	}

	m["runtime.alloc_mb"] = float64(end.allocBytes-start.allocBytes) / (1 << 20)
	m["runtime.gc_cycles"] = float64(end.gcCycles - start.gcCycles)
	m["telemetry.spans_dropped"] = float64(in.dropped)
	return m, cellCycles
}

// readLedgerFile loads a campaign ledger written by nacho.StartCampaign.
func readLedgerFile(path string) ([]telemetry.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, skipped, err := telemetry.ReadLedger(f)
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		return nil, fmt.Errorf("ledger %s: %d truncated records", path, skipped)
	}
	return recs, nil
}
