// Command perfbench is the repository's end-to-end benchmark. It
// regenerates the paper's evaluation, runs the differential fuzz campaign
// and runs the exhaustive crash explorer, each at one simulation worker,
// through the entry points the CLIs call. It checks every output against
// pinned goldens and prints one JSON result line.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload paper|fuzz|crash-explore --seed N --seconds S --trace 0|1
//	perfbench --pin     # rewrite perfbench/goldens.json at the default seed
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics of a separate
// traced run. Each workload pass and each set-up measurement runs in a fresh
// child process of this binary, because the image cache and the harness,
// fuzzer and snapshot counters are process-global: a second pass in one
// process would start warm.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"nacho"
	"nacho/internal/fuzzer"
	"nacho/internal/harness"
	"nacho/internal/program"
	"nacho/internal/snapshot"
	"nacho/internal/telemetry"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	role     string
	out      string
	pin      bool
}

// Child roles.
const (
	roleSetup = "setup" // set up, report ready, exit
	roleRun   = "run"   // set up, report ready, run one timed pass, print a result
)

// readyLine is the first line a child prints, once set-up is done.
const readyLine = "perfbench: ready"

// setupProbes is how many set-up-only processes a run starts besides its
// workload processes; setup_s is the median over all of them.
const setupProbes = 25

// runBudget bounds a whole invocation; children still running are killed.
const runBudget = 170 * time.Second

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

func main() {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: paper, fuzz or crash-explore")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; fuzz and crash-explore derive their programs from it")
	fs.IntVar(&o.seconds, "seconds", 10, "run workload passes until this many seconds have been measured")
	fs.IntVar(&o.trace, "trace", 0, "1 = print the per-layer metrics of a traced run")
	fs.BoolVar(&o.pin, "pin", false, "rewrite perfbench/goldens.json from traced runs at the default seed")
	fs.StringVar(&o.role, "role", "", "internal: run as a child process (setup or run)")
	fs.StringVar(&o.out, "out", "", "internal: directory for a traced child's profile, trace and ledger")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch {
	case o.role != "":
		err = child(o)
	case o.pin:
		err = pin()
	default:
		err = drive(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is what a run child reports on its last line.
type result struct {
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	SimCycles uint64             `json:"sim_cycles"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"failed"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Observed  goldens            `json:"observed"`
}

// setup is the work every workload process does before its timed phase: one
// simulation worker, the nine paper benchmark images built (assembled,
// decoded and lowered to the AOT IR), and the program's counters installed
// in a registry the benchmark reads deltas from.
func setup(tr *telemetry.Tracer) (*telemetry.Registry, telemetry.SpanID, error) {
	harness.SetWorkers(1)
	build := tr.Begin(0, telemetry.SpanCell, "perfbench build images", "", "")
	for _, name := range harness.AllBenchmarks() {
		p, ok := program.ByName(name)
		if !ok {
			return nil, 0, fmt.Errorf("unknown benchmark %q", name)
		}
		if _, err := p.Build(); err != nil {
			return nil, 0, err
		}
	}
	tr.End(build, 0, 0, false)
	reg := telemetry.NewRegistry()
	harness.RegisterMetrics(reg)
	fuzzer.RegisterMetrics(reg)
	snapshot.RegisterMetrics(reg)
	return reg, build, nil
}

// child is one workload process: set-up, then (for roleRun) one timed pass.
func child(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	traced := o.role == roleRun && o.trace == 1
	var camp *nacho.Campaign
	if traced {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
		camp, err = nacho.StartCampaign(nacho.CampaignConfig{
			Name:         "perfbench " + w.name,
			TracePath:    filepath.Join(o.out, "trace.json"),
			LedgerPath:   filepath.Join(o.out, "ledger.jsonl"),
			SpanCapacity: 1 << 17,
		})
		if err != nil {
			return err
		}
	}
	tr := telemetry.ActiveTracer()
	reg, buildSpan, err := setup(tr)
	if err != nil {
		camp.Close()
		return err
	}
	fmt.Println(readyLine)
	if o.role == roleSetup {
		return nil
	}

	env := &runEnv{reg: reg, tr: tr, log: os.Stderr}
	programs := w.inputs(o.seed)
	var prof bytes.Buffer
	start := markStart(reg)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			camp.Close()
			return err
		}
	}
	out := w.run(env, o.seed, programs, g)
	if traced {
		pprof.StopCPUProfile()
	}
	end := markEnd(reg)

	res := result{
		WallS:     end.at.Sub(start.at).Seconds(),
		CPUS:      (end.cpu - start.cpu).Seconds(),
		PeakRSSMB: peakRSSMiB(),
		SimCycles: out.simCycles,
		Ops:       out.ops,
		Failed:    out.failed,
		Observed:  out.observed,
	}
	if traced {
		in := traceInputs{spans: tr.Spans(), buildSpan: buildSpan, seedSpans: env.seedSpans, dropped: camp.DroppedSpans()}
		if err := camp.Close(); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.out, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
			return err
		}
		if in.profile, err = decodeProfile(prof.Bytes()); err != nil {
			return err
		}
		if in.ledger, err = readLedgerFile(filepath.Join(o.out, "ledger.jsonl")); err != nil {
			return err
		}
		var cellCycles uint64
		res.Layers, cellCycles = layerMetrics(start, end, in)
		if w.name == "paper" {
			res.Observed.Paper.Cycles = cellCycles
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// childRun is one finished child: its set-up time as the parent saw it, and
// its result (run children only).
type childRun struct {
	setup float64
	res   result
}

// spawn runs this binary as a child and waits for it. Set-up time runs from
// just before the process starts to its ready line, so it covers process
// start, package initialisation and setup.
func spawn(ctx context.Context, role string, o options, extra ...string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := append([]string{"--role", role, "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--trace", strconv.Itoa(o.trace)}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	r := bufio.NewReader(stdout)
	first, err := r.ReadString('\n')
	ready := time.Since(began).Seconds()
	if err != nil || strings.TrimSpace(first) != readyLine {
		cmd.Process.Kill()
		cmd.Wait()
		return childRun{}, fmt.Errorf("%s child did not report ready (%q): %v", role, first, err)
	}
	rest, err := io.ReadAll(r)
	if werr := cmd.Wait(); werr != nil {
		return childRun{}, fmt.Errorf("%s child: %w", role, werr)
	}
	if err != nil {
		return childRun{}, err
	}
	run := childRun{setup: ready}
	if role == roleRun {
		if err := json.Unmarshal(bytes.TrimSpace(rest), &run.res); err != nil {
			return childRun{}, fmt.Errorf("run child result: %w", err)
		}
	}
	return run, nil
}

// output is the parent process's last line.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func drive(o options) error {
	if _, err := findWorkload(o.workload); err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	fmt.Println(hostFacts())

	var metrics map[string]float64
	var units []metricDef
	var ops, failed int
	if o.trace == 0 {
		var setups []float64
		for range setupProbes {
			c, err := spawn(ctx, roleSetup, o)
			if err != nil {
				return err
			}
			setups = append(setups, c.setup)
		}
		// Passes of the fixed workload, each in a fresh process, until the
		// measured time reaches --seconds; each metric is the median pass.
		var wall, cpu, rss, mhz []float64
		for measured := 0.0; measured < float64(o.seconds); {
			c, err := spawn(ctx, roleRun, o)
			if err != nil {
				return err
			}
			r := c.res
			fmt.Printf("pass %d: wall %.3f s, cpu %.3f s, setup %.4f s, peak rss %.1f MiB, %d sim cycles, %d ops, %d failed\n",
				len(wall)+1, r.WallS, r.CPUS, c.setup, r.PeakRSSMB, r.SimCycles, r.Ops, r.Failed)
			setups = append(setups, c.setup)
			wall = append(wall, r.WallS)
			cpu = append(cpu, r.CPUS)
			rss = append(rss, r.PeakRSSMB)
			mhz = append(mhz, float64(r.SimCycles)/r.WallS/1e6)
			ops += r.Ops
			failed += r.Failed
			measured += r.WallS
		}
		metrics = map[string]float64{
			"wall_s":      median(wall),
			"cpu_s":       median(cpu),
			"setup_s":     median(setups),
			"peak_rss_mb": median(rss),
			"sim_mhz":     median(mhz),
		}
		units = endToEnd
	} else {
		// The overhead base: an untraced pass of the same workload.
		base, err := spawn(ctx, roleRun, options{workload: o.workload, seed: o.seed})
		if err != nil {
			return err
		}
		dir := filepath.Join(buildDir, "runs", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		traced, err := spawn(ctx, roleRun, o, "--out", dir)
		if err != nil {
			return err
		}
		metrics = traced.res.Layers
		metrics["telemetry.trace_overhead"] = traced.res.WallS / base.res.WallS
		ops = base.res.Ops + traced.res.Ops
		failed = base.res.Failed + traced.res.Failed
		units = perLayer
		fmt.Printf("traced pass: wall %.3f s (untraced %.3f s); profile, trace and ledger in %s\n",
			traced.res.WallS, base.res.WallS, dir)
	}

	res := output{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]value{}}
	for _, d := range units {
		v, ok := metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	fmt.Printf("ops %d (count), ops_failed %d (count)\n", ops, failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// pin regenerates goldens.json: one traced pass of every workload at the
// default seed, keeping the model outputs each observed.
func pin() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*runBudget)
	defer cancel()
	var g goldens
	for _, w := range workloads {
		o := options{workload: w.name, seed: defaultSeed, trace: 1}
		c, err := spawn(ctx, roleRun, o, "--out", filepath.Join(buildDir, "runs", "pin-"+w.name))
		if err != nil {
			return err
		}
		switch w.name {
		case "paper":
			g.Paper = c.res.Observed.Paper
		case "fuzz":
			g.Fuzz = c.res.Observed.Fuzz
		case "crash-explore":
			g.CrashExplore = c.res.Observed.CrashExplore
		}
		fmt.Printf("%s: pinned %d ops\n", w.name, c.res.Ops)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "goldens.json"), append(b, '\n'), 0o644)
}

// hostFacts describes what a result was measured on.
func hostFacts() string {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host: %s %s/%s, nproc %d, GOMAXPROCS %d, cpu %q, commit %s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
