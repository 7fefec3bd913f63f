package nacho

import (
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	res, err := Run(Config{Benchmark: "towers"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Errorf("empty result: %+v", res)
	}
	if res.ExitCode != 0 {
		t.Errorf("exit code %d", res.ExitCode)
	}
	if res.Duration() <= 0 {
		t.Error("duration not positive")
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run(Config{Benchmark: "nope"}); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("error = %v", err)
	}
}

func TestRunAllSystemsOnOneBenchmark(t *testing.T) {
	for _, s := range Systems() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			if _, err := Run(Config{Benchmark: "crc", System: s}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunWithFailures(t *testing.T) {
	res, err := Run(Config{Benchmark: "crc", OnDurationMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerFailures == 0 {
		t.Error("no power failures with OnDurationMs set")
	}
	res2, err := Run(Config{Benchmark: "crc", OnDurationMs: 1, RandomFailures: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res2.PowerFailures == 0 {
		t.Error("no random power failures")
	}
}

// TestVolatileUnderFailuresRejected: the volatile baseline keeps no
// checkpoint, so every power failure would restart it from its entry point
// until the instruction limit stopped it. Run and RunSource reject the
// combination up front, and still run volatile on always-on power.
func TestVolatileUnderFailuresRejected(t *testing.T) {
	for name, f := range map[string]func(Config) (*Result, error){
		"Run":       Run,
		"RunSource": func(cfg Config) (*Result, error) { return RunSource("halt", "_start:\n ebreak\n", cfg) },
	} {
		cfg := Config{Benchmark: "crc", System: Volatile, OnDurationMs: 0.2}
		if _, err := f(cfg); err == nil || !strings.Contains(err.Error(), "cannot run under power failures") {
			t.Errorf("%s(volatile, OnDurationMs 0.2): error = %v, want the power-failure rejection", name, err)
		}
		cfg.OnDurationMs = 0
		if _, err := f(cfg); err != nil {
			t.Errorf("%s(volatile, always on): %v", name, err)
		}
	}
}

func TestBenchmarksListed(t *testing.T) {
	names := Benchmarks()
	if len(names) != 9 {
		t.Fatalf("got %d benchmarks, want 9: %v", len(names), names)
	}
	for _, n := range names {
		if desc, ok := BenchmarkDescription(n); !ok || desc == "" {
			t.Errorf("benchmark %s has no description", n)
		}
	}
	if _, ok := BenchmarkDescription("bogus"); ok {
		t.Error("bogus benchmark has a description")
	}
}

func TestHitRateAndNVMBytes(t *testing.T) {
	res, err := Run(Config{Benchmark: "aes"})
	if err != nil {
		t.Fatal(err)
	}
	if hr := res.HitRate(); hr < 0.9 {
		t.Errorf("aes hit rate %f, expected >0.9 with a 512B cache", hr)
	}
	if res.NVMBytes() != res.NVMReadBytes+res.NVMWriteBytes {
		t.Error("NVMBytes inconsistent")
	}
}

func TestRunSource(t *testing.T) {
	src := `
_start:
	li   t0, 41
	addi t0, t0, 1
	li   t1, 0x000F0004
	sw   t0, (t1)
	li   t1, 0x000F0000
	sw   zero, (t1)
`
	res, err := RunSource("answer", src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultWord != 42 {
		t.Errorf("result = %d, want 42", res.ResultWord)
	}
}

func TestRunSourceAssemblyError(t *testing.T) {
	if _, err := RunSource("bad", "_start:\n bogus x, y\n", Config{}); err == nil {
		t.Error("assembly error not reported")
	}
}

func TestExperimentNamesResolve(t *testing.T) {
	for _, n := range ExperimentNames() {
		if n == "table1" {
			out, err := RunExperiment(n, nil)
			if err != nil || !strings.Contains(out.Text, "feature matrix") {
				t.Errorf("table1: %v", err)
			}
		}
	}
	if _, err := RunExperiment("fig99", nil); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentSubset(t *testing.T) {
	out, err := RunExperiment("fig7", []string{"aes"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "aes") || strings.Contains(out.Text, "coremark") {
		t.Errorf("subset not honored:\n%s", out.Text)
	}
}
