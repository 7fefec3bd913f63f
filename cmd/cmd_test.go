// Package cmd_test builds the command-line binaries and exercises them end
// to end — flag parsing, file I/O and output formatting, the layers the
// library tests cannot reach.
package cmd_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// readSources reads go.mod and every Go file of the module that the
// commands are built from. go test caches a passing result against the
// files the test process opened, and the go build subprocess's reads do not
// count, so without this an edit to the library would be served a stale
// cached pass.
var readSources = sync.OnceValue(func() error {
	list := exec.Command("go", "list", "-e", "-deps", "-f",
		"{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}\n{{end}}{{end}}", "./cmd/...")
	list.Dir = ".."
	out, err := list.Output()
	if err != nil {
		return err
	}
	for _, f := range append(strings.Fields(string(out)), "../go.mod") {
		if _, err := os.ReadFile(f); err != nil {
			return err
		}
	}
	return nil
})

// build compiles one command into t.TempDir and returns the binary path.
func build(t *testing.T, pkg string) string {
	t.Helper()
	if err := readSources(); err != nil {
		t.Fatalf("reading the module's sources: %v", err)
	}
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

func TestNachosimEndToEnd(t *testing.T) {
	bin := build(t, "cmd/nachosim")

	out, err := run(t, bin, "-list")
	if err != nil {
		t.Fatalf("-list: %v\n%s", err, out)
	}
	for _, want := range []string{"aes", "towers", "nacho", "clank", "writethrough"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}

	out, err = run(t, bin, "-bench", "towers", "-system", "nacho")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{"cycles", "checkpoints", "hit rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	out, err = run(t, bin, "-bench", "crc", "-onduration", "1")
	if err != nil {
		t.Fatalf("intermittent run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "power failures") {
		t.Errorf("intermittent output missing failures:\n%s", out)
	}

	out, err = run(t, bin, "-bench", "crc", "-probe-stats", "-onduration", "1")
	if err != nil {
		t.Fatalf("-probe-stats: %v\n%s", err, out)
	}
	for _, want := range []string{"checkpoint intervals", "closed by", "power-failure", "verdicts"} {
		if !strings.Contains(out, want) {
			t.Errorf("-probe-stats output missing %q:\n%s", want, out)
		}
	}

	if out, err = run(t, bin, "-bench", "bogus"); err == nil {
		t.Errorf("unknown benchmark accepted:\n%s", out)
	}

	// User program from a file.
	src := filepath.Join(t.TempDir(), "p.s")
	prog := "_start:\n li a0, 7\n li t0, 0x000F0004\n sw a0, (t0)\n li t0, 0x000F0000\n sw zero, (t0)\n"
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = run(t, bin, "-run", src)
	if err != nil {
		t.Fatalf("-run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0x00000007") {
		t.Errorf("-run result missing:\n%s", out)
	}
}

// TestProfilingFlags runs both CLIs with the four profile flags and checks
// that non-empty pprof files come out. An unwritable profile path must fail.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	sim := build(t, "cmd/nachosim")
	cpu, mem := filepath.Join(dir, "sim.cpu.pprof"), filepath.Join(dir, "sim.mem.pprof")
	mtx, blk := filepath.Join(dir, "sim.mutex.pprof"), filepath.Join(dir, "sim.block.pprof")
	out, err := run(t, sim, "-bench", "crc", "-noverify",
		"-cpuprofile", cpu, "-memprofile", mem, "-mutexprofile", mtx, "-blockprofile", blk)
	if err != nil {
		t.Fatalf("nachosim with profiles: %v\n%s", err, out)
	}
	for _, p := range []string{cpu, mem, mtx, blk} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}

	bench := build(t, "cmd/nachobench")
	cpu = filepath.Join(dir, "bench.cpu.pprof")
	mtx = filepath.Join(dir, "bench.mutex.pprof")
	out, err = run(t, bench, "-exp", "table1", "-cpuprofile", cpu, "-mutexprofile", mtx)
	if err != nil {
		t.Fatalf("nachobench with profile: %v\n%s", err, out)
	}
	for _, p := range []string{cpu, mtx} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}

	if out, err = run(t, sim, "-bench", "crc", "-cpuprofile", filepath.Join(dir, "no/such/dir/p")); err == nil {
		t.Errorf("unwritable -cpuprofile accepted:\n%s", out)
	}
}

func TestNachobenchEndToEnd(t *testing.T) {
	bin := build(t, "cmd/nachobench")

	out, err := run(t, bin, "-exp", "table1")
	if err != nil {
		t.Fatalf("table1: %v\n%s", err, out)
	}
	if !strings.Contains(out, "feature matrix") {
		t.Errorf("table1 output wrong:\n%s", out)
	}

	out, err = run(t, bin, "-exp", "fig7", "-bench", "towers,aes", "-csv")
	if err != nil {
		t.Fatalf("fig7 csv: %v\n%s", err, out)
	}
	if !strings.HasPrefix(out, "benchmark,clank(bytes)") {
		t.Errorf("csv header wrong:\n%s", out)
	}

	if out, err = run(t, bin, "-exp", "nope"); err == nil {
		t.Errorf("unknown experiment accepted:\n%s", out)
	}
}

// TestNachobenchParallelDeterminism checks the -j contract at the process
// level: stdout is byte-identical for any worker count, and the timing
// summary stays on stderr where it cannot perturb captured reports.
func TestNachobenchParallelDeterminism(t *testing.T) {
	bin := build(t, "cmd/nachobench")

	outputs := make(map[string]string)
	for _, j := range []string{"1", "4"} {
		cmd := exec.Command(bin, "-exp", "fig6", "-bench", "sha", "-j", j)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("-j %s: %v\n%s", j, err, stderr.String())
		}
		outputs[j] = stdout.String()
		if !strings.Contains(stderr.String(), "timing:") {
			t.Errorf("-j %s: timing summary missing from stderr:\n%s", j, stderr.String())
		}
		if strings.Contains(stdout.String(), "timing:") {
			t.Errorf("-j %s: timing leaked into stdout", j)
		}
	}
	if outputs["1"] != outputs["4"] {
		t.Errorf("stdout differs between -j 1 and -j 4:\n--- j1\n%s--- j4\n%s", outputs["1"], outputs["4"])
	}
}

func TestNachoasmEndToEnd(t *testing.T) {
	bin := build(t, "cmd/nachoasm")

	src := filepath.Join(t.TempDir(), "p.s")
	prog := "_start:\n li a0, 42\nloop:\n j loop\n"
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	outBin := filepath.Join(t.TempDir(), "p.bin")
	out, err := run(t, bin, "-symbols", "-o", outBin, src)
	if err != nil {
		t.Fatalf("nachoasm: %v\n%s", err, out)
	}
	for _, want := range []string{"_start:", "loop:", "addi a0, zero, 42", "; symbols"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(outBin)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8 { // two instructions
		t.Errorf("binary is %d bytes, want 8", len(data))
	}

	if out, err = run(t, bin, "/nonexistent.s"); err == nil {
		t.Errorf("missing file accepted:\n%s", out)
	}
	bad := filepath.Join(t.TempDir(), "bad.s")
	os.WriteFile(bad, []byte("_start:\n bogus\n"), 0o644)
	if out, err = run(t, bin, bad); err == nil {
		t.Errorf("bad source accepted:\n%s", out)
	}
}

// TestNachosimTelemetryFlags covers -perfetto (the file must be loadable
// trace-event JSON spanning the run) and -serve (the bound address is
// announced on stderr and the endpoints answer while the process lives).
func TestNachosimTelemetryFlags(t *testing.T) {
	bin := build(t, "cmd/nachosim")

	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out, err := run(t, bin, "-bench", "crc", "-onduration", "1", "-perfetto", traceFile)
	if err != nil {
		t.Fatalf("-perfetto: %v\n%s", err, out)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-perfetto wrote invalid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		counts[e.Ph]++
	}
	if counts["M"] == 0 || counts["X"] == 0 || counts["i"] == 0 {
		t.Errorf("trace phases = %v, want metadata, slices and instants", counts)
	}

	out, err = run(t, bin, "-bench", "towers", "-serve", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("-serve: %v\n%s", err, out)
	}
	if !strings.Contains(out, "telemetry on http://127.0.0.1:") {
		t.Errorf("-serve did not announce its address:\n%s", out)
	}

	if out, err = run(t, bin, "-bench", "crc", "-serve", "256.0.0.1:http"); err == nil {
		t.Errorf("bad -serve address accepted:\n%s", out)
	}
}

// exitCode extracts the exit status from run's error (-1 if the process
// never ran or was killed by a signal).
func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// TestCLIErrorPaths: every command must reject a bad invocation with a
// non-zero exit status and a diagnostic naming the command and the offending
// input — the contract shell scripts and CI depend on. Unwritable outputs
// use a nonexistent parent directory (permission bits are no barrier when
// tests run as root).
func TestCLIErrorPaths(t *testing.T) {
	sim := build(t, "cmd/nachosim")
	bench := build(t, "cmd/nachobench")
	asm := build(t, "cmd/nachoasm")
	fuzz := build(t, "cmd/nachofuzz")

	src := filepath.Join(t.TempDir(), "ok.s")
	if err := os.WriteFile(src, []byte("_start:\n li a0, 1\nloop:\n j loop\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		bin  string
		args []string
		want []string // substrings required in combined output
	}{
		{"nachosim unknown flag", sim, []string{"-definitely-not-a-flag"},
			[]string{"flag provided but not defined", "Usage"}},
		{"nachosim unknown benchmark", sim, []string{"-bench", "no-such-bench"},
			[]string{"nachosim:", "no-such-bench"}},
		{"nachosim unknown system", sim, []string{"-bench", "crc", "-system", "no-such-system"},
			[]string{"nachosim:", "no-such-system"}},
		{"nachosim missing -run file", sim, []string{"-run", "/nonexistent/prog.s"},
			[]string{"nachosim:", "/nonexistent/prog.s"}},
		{"nachosim unwritable -trace", sim, []string{"-bench", "crc", "-trace", "/nonexistent-dir/t.out"},
			[]string{"nachosim:", "/nonexistent-dir/t.out"}},
		{"nachosim unwritable -perfetto", sim, []string{"-bench", "crc", "-perfetto", "/nonexistent-dir/p.json"},
			[]string{"nachosim:", "/nonexistent-dir/p.json"}},
		{"nachosim -trace write error", sim, []string{"-bench", "crc", "-trace", "/dev/full"},
			[]string{"nachosim:", "trace: write /dev/full"}},
		// The volatile baseline keeps no checkpoint, so it cannot finish
		// under power failures: both run paths reject it up front.
		{"nachosim -bench volatile under failures", sim, []string{"-bench", "crc", "-system", "volatile", "-onduration", "0.2"},
			[]string{"nachosim:", "cannot run under power failures"}},
		{"nachosim -run volatile under failures", sim, []string{"-run", src, "-system", "volatile", "-onduration", "0.2"},
			[]string{"nachosim:", "cannot run under power failures"}},
		{"nachobench unknown flag", bench, []string{"-definitely-not-a-flag"},
			[]string{"flag provided but not defined", "Usage"}},
		{"nachobench unknown experiment", bench, []string{"-exp", "no-such-exp"},
			[]string{"nachobench:", "no-such-exp"}},
		{"nachoasm no input", asm, nil,
			[]string{"usage: nachoasm"}},
		{"nachoasm two inputs", asm, []string{src, src},
			[]string{"usage: nachoasm"}},
		{"nachoasm missing input", asm, []string{"/nonexistent/prog.s"},
			[]string{"nachoasm:", "/nonexistent/prog.s"}},
		{"nachoasm unwritable -o", asm, []string{"-o", "/nonexistent-dir/out.bin", src},
			[]string{"nachoasm:", "/nonexistent-dir/out.bin"}},
		// Removed options must fail loudly, not fall back silently: the
		// engine selector, the deprecated reference alias, and the
		// distributed job service's flags.
		{"nachosim removed -engine", sim, []string{"-bench", "crc", "-engine", "ref"},
			[]string{"flag provided but not defined: -engine"}},
		{"nachobench removed -engine", bench, []string{"-engine", "ref"},
			[]string{"flag provided but not defined: -engine"}},
		{"nachofuzz removed -engine", fuzz, []string{"-engine", "ref"},
			[]string{"flag provided but not defined: -engine"}},
		{"nachosim removed -no-fastpath", sim, []string{"-no-fastpath", "-bench", "crc"},
			[]string{"flag provided but not defined: -no-fastpath"}},
		{"nachobench removed -worker", bench, []string{"-worker", "http://127.0.0.1:1"},
			[]string{"flag provided but not defined: -worker"}},
		{"nachobench removed -serve-jobs", bench, []string{"-serve-jobs"},
			[]string{"flag provided but not defined: -serve-jobs"}},
		{"nachobench removed -exp none", bench, []string{"-exp", "none"},
			[]string{"nachobench:", `"none"`}},
		{"nachofuzz removed -submit", fuzz, []string{"-submit", "http://127.0.0.1:1"},
			[]string{"flag provided but not defined: -submit"}},
		{"nachofuzz removed -chunk", fuzz, []string{"-chunk", "8"},
			[]string{"flag provided but not defined: -chunk"}},
		{"nachofuzz unknown system", fuzz, []string{"-systems", "no-such-system"},
			[]string{"nachofuzz:", "no-such-system"}},
		{"nachofuzz volatile rejected", fuzz, []string{"-systems", "volatile"},
			[]string{"nachofuzz:", "volatile"}},
		{"nachofuzz bad seed count", fuzz, []string{"-seeds", "-3"},
			[]string{"nachofuzz:", "-seeds"}},
		{"nachofuzz missing artifact", fuzz, []string{"-replay", "/nonexistent/finding.json"},
			[]string{"nachofuzz:", "/nonexistent/finding.json"}},
		{"nachofuzz stray argument", fuzz, []string{"-seeds", "1", "stray"},
			[]string{"nachofuzz:", "stray"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// /dev/full, which fails every write, is not on every system.
			if slices.Contains(tc.args, "/dev/full") {
				if _, err := os.Stat("/dev/full"); err != nil {
					t.Skip("no /dev/full on this system")
				}
			}
			out, err := run(t, tc.bin, tc.args...)
			if err == nil {
				t.Fatalf("exit 0, want failure:\n%s", out)
			}
			if code := exitCode(err); code <= 0 {
				t.Fatalf("exit code %d, want positive: %v\n%s", code, err, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestNachosimEngineSelection compares the two engines at the CLI: a traced
// run, the one kind that executes on the reference interpreter, prints the
// same report as the untraced run on the AOT engine, and its ledger record
// names the reference interpreter.
func TestNachosimEngineSelection(t *testing.T) {
	bin := build(t, "cmd/nachosim")
	args := []string{"-bench", "crc", "-system", "nacho", "-onduration", "1"}
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")

	aot, err := run(t, bin, args...)
	if err != nil {
		t.Fatalf("untraced: %v\n%s", err, aot)
	}
	ref, err := run(t, bin, append([]string{"-trace", filepath.Join(dir, "t.trace"), "-ledger", ledger}, args...)...)
	if err != nil {
		t.Fatalf("traced: %v\n%s", err, ref)
	}
	if ref != aot {
		t.Errorf("traced (reference) output differs from untraced (AOT):\n%s\nvs\n%s", ref, aot)
	}
	rec, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rec), `"engine":"ref"`) {
		t.Errorf("traced run's ledger record does not name the reference interpreter:\n%s", rec)
	}
}

// TestNachofuzzEndToEnd drives the fuzzing CLI the way CI does: a healthy
// campaign exits 0 with a deterministic report, a campaign against the
// deliberately broken system exits 1 and leaves artifacts, and -replay on
// such an artifact exits 0 after reproducing the finding.
func TestNachofuzzEndToEnd(t *testing.T) {
	bin := build(t, "cmd/nachofuzz")

	// The report on stdout must be byte-identical across runs; timing noise
	// belongs on stderr.
	outputs := make([]string, 2)
	for i := range outputs {
		cmd := exec.Command(bin, "-seeds", "8")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("healthy campaign: %v\n%s", err, stderr.String())
		}
		if strings.Contains(stdout.String(), "timing:") {
			t.Errorf("timing leaked into stdout:\n%s", stdout.String())
		}
		outputs[i] = stdout.String()
	}
	if !strings.Contains(outputs[0], "8 seeds") || !strings.Contains(outputs[0], "0 findings") {
		t.Errorf("healthy report wrong:\n%s", outputs[0])
	}
	if outputs[0] != outputs[1] {
		t.Errorf("campaign is not deterministic:\n--- first\n%s--- second\n%s", outputs[0], outputs[1])
	}

	dir := filepath.Join(t.TempDir(), "findings")
	out, err := run(t, bin, "-seeds", "10", "-systems", "nacho-broken-pw", "-out", dir)
	if code := exitCode(err); code != 1 {
		t.Fatalf("broken campaign exit = %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "FINDING") || !strings.Contains(out, "war-violation") {
		t.Errorf("broken campaign report missing findings:\n%s", out)
	}
	arts, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(arts) == 0 {
		t.Fatalf("no artifacts written to %s (%v)", dir, err)
	}

	out, err = run(t, bin, "-replay", arts[0])
	if err != nil {
		t.Fatalf("-replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "reproduced") {
		t.Errorf("-replay output wrong:\n%s", out)
	}
}

// TestNachofuzzExhaustive drives the snapshot-fork exhaustive mode: a
// healthy campaign exits 0 with a deterministic report and prints the
// measured speedup to stderr; the broken system still yields findings.
func TestNachofuzzExhaustive(t *testing.T) {
	bin := build(t, "cmd/nachofuzz")

	outputs := make([]string, 2)
	var firstStderr string
	for i := range outputs {
		cmd := exec.Command(bin, "-seeds", "4", "-exhaustive", "-stride", "5", "-systems", "nacho,clank")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("exhaustive campaign: %v\n%s", err, stderr.String())
		}
		outputs[i] = stdout.String()
		if i == 0 {
			firstStderr = stderr.String()
		}
	}
	if !strings.Contains(outputs[0], "0 findings") {
		t.Errorf("healthy exhaustive report wrong:\n%s", outputs[0])
	}
	if outputs[0] != outputs[1] {
		t.Errorf("exhaustive campaign is not deterministic:\n--- first\n%s--- second\n%s", outputs[0], outputs[1])
	}
	if !strings.Contains(firstStderr, "exhaustive:") || !strings.Contains(firstStderr, "speedup") {
		t.Errorf("stderr missing exhaustive speedup line:\n%s", firstStderr)
	}

	out, err := run(t, bin, "-seeds", "10", "-exhaustive", "-stride", "5", "-systems", "nacho-broken-pw")
	if code := exitCode(err); code != 1 {
		t.Fatalf("broken exhaustive campaign exit = %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "FINDING") {
		t.Errorf("broken exhaustive report missing findings:\n%s", out)
	}
}

// TestNachobenchStoreWarmRegeneration drives the persistent run store at the
// process level: a second invocation against the same -store directory
// executes zero simulations, reports its store hits on stderr, and prints a
// byte-identical report.
func TestNachobenchStoreWarmRegeneration(t *testing.T) {
	bin := build(t, "cmd/nachobench")
	storeDir := filepath.Join(t.TempDir(), "runs")

	runBench := func() (string, string) {
		t.Helper()
		cmd := exec.Command(bin, "-exp", "fig6", "-bench", "crc", "-store", storeDir)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("nachobench -store: %v\n%s", err, stderr.String())
		}
		return stdout.String(), stderr.String()
	}

	coldOut, coldErr := runBench()
	if !strings.Contains(coldErr, "store "+storeDir) || !strings.Contains(coldErr, "puts") {
		t.Errorf("cold run stderr missing store summary:\n%s", coldErr)
	}
	warmOut, warmErr := runBench()
	if warmOut != coldOut {
		t.Errorf("warm report not byte-identical:\n--- cold\n%s--- warm\n%s", coldOut, warmOut)
	}
	if !strings.Contains(warmErr, "timing: 0 runs") || !strings.Contains(warmErr, "persistent-store hits") {
		t.Errorf("warm run stderr does not show a zero-run store-served sweep:\n%s", warmErr)
	}
}

// TestNachobenchStoreKeepsRunsOnErrorExit: a sweep that fails part-way exits
// 1 through os.Exit, which skips every deferred close, yet each run it
// executed is already in the store. fig5 on crc executes 11 runs before the
// unknown benchmark fails the experiment.
func TestNachobenchStoreKeepsRunsOnErrorExit(t *testing.T) {
	bin := build(t, "cmd/nachobench")
	storeDir := filepath.Join(t.TempDir(), "runs")
	out, err := run(t, bin, "-exp", "fig5", "-bench", "crc,nosuch", "-store", storeDir)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("nachobench with an unknown benchmark: err = %v, want exit status 1\n%s", err, out)
	}
	n := 0
	err = filepath.WalkDir(filepath.Join(storeDir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Errorf("store holds %d objects after the error exit, want 11 (one per executed run)\n%s", n, out)
	}
}

// TestNachosimStoreFlag: the single-run CLI is served from the store on its
// second identical invocation.
func TestNachosimStoreFlag(t *testing.T) {
	bin := build(t, "cmd/nachosim")
	storeDir := filepath.Join(t.TempDir(), "runs")

	cold, err := run(t, bin, "-bench", "towers", "-store", storeDir)
	if err != nil {
		t.Fatalf("cold: %v\n%s", err, cold)
	}
	if !strings.Contains(cold, "0 hits, 1 misses, 1 puts") {
		t.Errorf("cold store summary wrong:\n%s", cold)
	}
	warm, err := run(t, bin, "-bench", "towers", "-store", storeDir)
	if err != nil {
		t.Fatalf("warm: %v\n%s", err, warm)
	}
	if !strings.Contains(warm, "1 hits, 0 misses, 0 puts") {
		t.Errorf("warm store summary wrong:\n%s", warm)
	}
}

// TestNachobenchServeFlag smoke-tests the sweep-side telemetry server.
func TestNachobenchServeFlag(t *testing.T) {
	bin := build(t, "cmd/nachobench")
	out, err := run(t, bin, "-exp", "fig6", "-bench", "crc", "-serve", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("-serve: %v\n%s", err, out)
	}
	if !strings.Contains(out, "telemetry on http://127.0.0.1:") {
		t.Errorf("-serve did not announce its address:\n%s", out)
	}
}
