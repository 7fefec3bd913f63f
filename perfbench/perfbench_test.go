package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"nacho/internal/fuzzer"
	"nacho/internal/harness"
	"nacho/internal/snapshot"
	"nacho/internal/telemetry"
)

func TestFoldStack(t *testing.T) {
	cases := []struct {
		name   string
		frames []string
		want   string
	}{
		{"runtime frame under mem counts toward mem",
			[]string{"runtime.mallocgc", "runtime.newobject", "nacho/internal/mem.(*Space).writablePage",
				"nacho/internal/emu.(*Machine).Run", "main.main"}, "mem"},
		{"nearest module to the leaf wins",
			[]string{"runtime.mapaccess2", "nacho/internal/track.(*Tracker).Touch",
				"nacho/internal/verify.(*Verifier).OnAccess", "nacho/internal/harness.RunImageSys"}, "track"},
		{"closure", []string{"nacho/internal/harness.regenerate.func1"}, "harness"},
		{"nested package path", []string{"nacho/internal/fuzzer/sub.F"}, "fuzzer"},
		{"background GC", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{"GC assist belongs to the allocating module",
			[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "nacho/internal/asm.Assemble"}, "asm"},
		{"no module", []string{"runtime.futex", "runtime.schedule", "main.main"}, bucketOther},
		{"root package is not a module", []string{"nacho.RunExperiment"}, bucketOther},
	}
	for _, c := range cases {
		if got := foldStack(c.frames); got != c.want {
			t.Errorf("%s: foldStack = %q, want %q", c.name, got, c.want)
		}
	}
}

// spin burns CPU inside a function the profile can name.
//
//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := range 1000 {
			x += uint64(i) * x
		}
	}
	return x
}

var sink uint64

func TestDecodeProfileFoldsToItsTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	var sawSpin bool
	for _, s := range samples {
		total += float64(s.nanos) / 1e9
		for _, f := range s.frames {
			sawSpin = sawSpin || f == "nacho/perfbench.spin"
		}
	}
	if total < 0.1 || !sawSpin {
		t.Fatalf("profile total %.3f s, saw spin frame %v; want >= 0.1 s with the spin frame", total, sawSpin)
	}
	var folded float64
	for _, v := range foldProfile(samples) {
		folded += v
	}
	if math.Abs(folded-total) > 1e-9 {
		t.Errorf("folded buckets sum to %v s, profile total %v s", folded, total)
	}
}

func TestTailHasTenSamplesAbove(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		name    string
		xs      []float64
		value   float64
		pct     float64
		defined bool
	}{
		{"100 samples: the 90th", seq(100), 90, 90, true},
		{"11 samples: the smallest", seq(11), 1, 100.0 / 11, true},
		{"10 samples: none", seq(10), 0, 0, false},
		{"no samples", nil, 0, 0, false},
		// Ten 5s tie at the top: only the 4 has ten samples above it.
		{"ties at the top", []float64{1, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, 4, 400.0 / 14, true},
		// A tie below the tail reports the percentile of its last member.
		{"tie at the tail", []float64{1, 2, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 2, 400.0 / 14, true},
	}
	for _, c := range cases {
		v, pct, ok := tail(c.xs)
		if ok != c.defined || v != c.value || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("%s: tail = (%v, %v, %v), want (%v, %v, %v)", c.name, v, pct, ok, c.value, c.pct, c.defined)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// newTestEnv installs the counters a workload pass reads.
func newTestEnv() *runEnv {
	harness.SetWorkers(1)
	reg := telemetry.NewRegistry()
	harness.RegisterMetrics(reg)
	fuzzer.RegisterMetrics(reg)
	snapshot.RegisterMetrics(reg)
	return &runEnv{reg: reg, log: io.Discard}
}

func TestCorruptedGoldenFailsOp(t *testing.T) {
	e := newTestEnv()
	programs := programSeeds(defaultSeed, 3)

	fuzz := runFuzz(e, defaultSeed, programs, &goldens{})
	if fuzz.ops != 3 || fuzz.failed != 3 {
		t.Errorf("fuzz with a wrong report golden: %d ops, %d failed; want every op failed", fuzz.ops, fuzz.failed)
	}
	if ok := runFuzz(e, defaultSeed, programs, &fuzz.observed); ok.failed != 0 {
		t.Errorf("fuzz with its own outputs as goldens: %d failed", ok.failed)
	}
	if other := runFuzz(e, defaultSeed+1, programSeeds(defaultSeed+1, 3), &goldens{}); other.failed != 0 {
		t.Errorf("fuzz away from the default seed checks no goldens, yet %d ops failed", other.failed)
	}

	crash := runCrashExplore(e, defaultSeed, programs[:2], &goldens{})
	g := crash.observed
	if crash.ops != 2 || crash.failed != 2 {
		t.Fatalf("crash-explore with no goldens: %d ops, %d failed; want 2 failed", crash.ops, crash.failed)
	}
	if ok := runCrashExplore(e, defaultSeed, programs[:2], &g); ok.failed != 0 {
		t.Errorf("crash-explore with its own outputs as goldens: %d failed", ok.failed)
	}
	g.CrashExplore.Seeds = append([]crashSeed(nil), g.CrashExplore.Seeds...)
	g.CrashExplore.Seeds[1].Instants++
	if bad := runCrashExplore(e, defaultSeed, programs[:2], &g); bad.failed != 1 {
		t.Errorf("crash-explore with one corrupted golden: %d failed, want 1", bad.failed)
	}
}

func TestCorruptedPaperGoldenFailsOp(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates an experiment")
	}
	defer func(prev []string) { paperExperiments = prev }(paperExperiments)
	paperExperiments = []string{"table3"}
	e := newTestEnv()
	first := runPaper(e, defaultSeed, nil, &goldens{})
	if first.ops != 1 || first.failed != 1 {
		t.Errorf("paper with no goldens: %d ops, %d failed; want 1 failed", first.ops, first.failed)
	}
	g := first.observed
	if ok := runPaper(e, defaultSeed, nil, &g); ok.failed != 0 {
		t.Errorf("paper with its own outputs as goldens: %d failed", ok.failed)
	}
	g.Paper.Reports["table3.csv"] = digest("corrupted")
	if bad := runPaper(e, defaultSeed, nil, &g); bad.failed != 1 {
		t.Errorf("paper with a corrupted CSV golden: %d failed, want 1", bad.failed)
	}
}

func TestProgramSeeds(t *testing.T) {
	seeds := programSeeds(defaultSeed, 50)
	if seeds[0] != 1 {
		t.Errorf("default seed starts at program seed %d, want nachofuzz's default 1", seeds[0])
	}
	for i, s := range seeds {
		if n := executedOps(fuzzer.Generate(s).Ops); n > maxProgramOps {
			t.Errorf("program seed %d executes %d ops, over %d", s, n, maxProgramOps)
		}
		if i > 0 && s <= seeds[i-1] {
			t.Errorf("program seeds not increasing at %d", i)
		}
	}
	if next := programSeeds(defaultSeed+1, 1); next[0] <= seeds[len(seeds)-1] {
		t.Errorf("seed %d starts at program seed %d, inside the default seed's range", defaultSeed+1, next[0])
	}
	loop := []fuzzer.Op{{Kind: fuzzer.OpALU}, {Kind: fuzzer.OpLoop, V: 3, Body: []fuzzer.Op{{Kind: fuzzer.OpLoad}, {Kind: fuzzer.OpStore}}}}
	if n := executedOps(loop); n != 1+1+3*2 {
		t.Errorf("executedOps = %d, want 8", n)
	}
}

func TestLayerMetricsNamesEveryPerLayerMetric(t *testing.T) {
	m, _ := layerMetrics(phaseMark{}, phaseMark{}, traceInputs{})
	m["telemetry.trace_overhead"] = 1 // set by the parent, from two passes
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			t.Errorf("layerMetrics has no %s", d.name)
		}
	}
	if len(m) != len(perLayer) {
		t.Errorf("layerMetrics returns %d metrics, perLayer lists %d", len(m), len(perLayer))
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the contract file and the printed
// metrics in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}
