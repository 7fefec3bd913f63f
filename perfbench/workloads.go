package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"nacho"
	"nacho/internal/fuzzer"
	"nacho/internal/telemetry"
)

// defaultSeed is the benchmark seed the goldens are pinned at. Its first
// program seed is 1, nachofuzz's default -seed-base.
const defaultSeed = 0

// seedStride spaces the program seeds of consecutive benchmark seeds, so no
// two benchmark seeds share an input program.
const seedStride = 1 << 20

// maxProgramOps bounds the generated programs fuzz and crash-explore take:
// seeds whose program executes more ops, loop bodies counted once per trip,
// are skipped; 83% of seeds pass. The work per program is heavy-tailed —
// exploring one 1177-op program cost 345M from-boot cycles, a quarter of a
// crash-explore pass, where the median seed costs 0.6M — so without the
// bound a few programs would decide a pass's time and its simulated cycles.
const maxProgramOps = 150

// paperExperiments are the six §6.2 experiments that run simulations, each
// with its paper-default benchmark set.
var paperExperiments = []string{"fig5", "fig6", "fig7", "table2", "table3", "fig8"}

// fuzzPrograms is how many generated programs one fuzz pass checks.
const fuzzPrograms = 2048

// crashBootBudget is how much work one crash-explore pass enumerates, in
// from-boot simulated cycles of its crash instants: programs are taken in
// order until their instants' from-boot cycles reach it, so every seed's
// pass does about the same work. crashMaxPrograms bounds the pass should
// programs stop yielding instants.
const (
	crashBootBudget  = 250_000_000
	crashMaxPrograms = 1024
)

// goldens pins every output the benchmark checks at defaultSeed. Only model
// outputs are pinned — report bytes, crash instants and their from-boot
// cycles — never work done, so sharing runs or memoising forks stays legal.
// `perfbench --pin` regenerates the file.
type goldens struct {
	Paper        paperGolden `json:"paper"`
	Fuzz         fuzzGolden  `json:"fuzz"`
	CrashExplore crashGolden `json:"crash-explore"`
}

type paperGolden struct {
	// Reports maps "<experiment>.txt" and "<experiment>.csv" to the sha256
	// of that rendering.
	Reports map[string]string `json:"reports"`
	// Cycles sums the simulated cycles of each distinct run identity once;
	// it is the sim_mhz numerator.
	Cycles uint64 `json:"cycles"`
}

type fuzzGolden struct {
	// Report is the sha256 of the per-seed campaign reports in seed order.
	Report string `json:"report"`
	// Cycles sums the simulated cycles of every oracle run; it is the
	// sim_mhz numerator at defaultSeed.
	Cycles uint64 `json:"cycles"`
}

type crashGolden struct {
	Seeds []crashSeed `json:"seeds"`
}

// crashSeed is one crash-explore op: a generated program's campaign report
// and the crash instants it enumerated.
type crashSeed struct {
	Seed       int64  `json:"seed"`
	Instants   uint64 `json:"instants"`
	BootCycles uint64 `json:"boot_cycles"`
	Report     string `json:"report"`
}

//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return &g, nil
}

// outcome is what one workload pass produced.
type outcome struct {
	ops, failed int
	// simCycles is the modelled cycles the pass's output stands for.
	simCycles uint64
	// observed holds this workload's model outputs in golden form.
	observed goldens
}

// runEnv is what a workload pass reads and writes besides the program: the
// counter registry and the campaign tracer (nil when tracing is off).
type runEnv struct {
	reg *telemetry.Registry
	tr  *telemetry.Tracer
	// seedSpans are the benchmark's own spans, one per fuzzed seed.
	seedSpans []telemetry.SpanID
	// log receives one line per failed op.
	log io.Writer
}

// A workload makes its inputs from the benchmark seed before the timed
// phase; run is the timed phase.
type workload struct {
	name   string
	inputs func(seed int64) []int64
	run    func(e *runEnv, seed int64, programs []int64, g *goldens) outcome
}

var workloads = []workload{
	{"paper", func(int64) []int64 { return nil }, runPaper},
	{"fuzz", func(seed int64) []int64 { return programSeeds(seed, fuzzPrograms) }, runFuzz},
	{"crash-explore", func(seed int64) []int64 { return programSeeds(seed, crashMaxPrograms) }, runCrashExplore},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want paper, fuzz or crash-explore)", name)
}

// programSeeds returns the first n generator seeds, from the benchmark
// seed's first program seed on, whose program executes at most
// maxProgramOps ops. Arithmetic wraps, so every seed maps to fixed inputs.
func programSeeds(seed int64, n int) []int64 {
	out := make([]int64, 0, n)
	for s := int64(uint64(seed)*seedStride + 1); len(out) < n; s++ {
		if executedOps(fuzzer.Generate(s).Ops) <= maxProgramOps {
			out = append(out, s)
		}
	}
	return out
}

// executedOps counts the ops a generated program executes, with each loop
// body counted once per trip.
func executedOps(ops []fuzzer.Op) int {
	n := 0
	for _, op := range ops {
		n++
		switch op.Kind {
		case fuzzer.OpLoop:
			n += int(op.V) * executedOps(op.Body)
		case fuzzer.OpCall:
			n += executedOps(op.Body)
		}
	}
	return n
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// runPaper regenerates the six experiments as nachobench does, one op per
// experiment. An op fails on an error or on a text or CSV rendering that
// differs from its golden.
func runPaper(e *runEnv, _ int64, _ []int64, g *goldens) outcome {
	o := outcome{simCycles: g.Paper.Cycles}
	o.observed.Paper.Reports = map[string]string{}
	for _, name := range paperExperiments {
		o.ops++
		span := e.tr.Begin(0, telemetry.SpanCell, "perfbench "+name, "", "")
		prev := e.tr.SetAmbient(span)
		out, err := nacho.RunExperiment(name, nil)
		e.tr.SetAmbient(prev)
		e.tr.End(span, 0, 0, err != nil)
		if err != nil {
			o.failed++
			fmt.Fprintf(e.log, "op %s failed: %v\n", name, err)
			continue
		}
		txt, csv := digest(out.Text), digest(out.CSV)
		o.observed.Paper.Reports[name+".txt"] = txt
		o.observed.Paper.Reports[name+".csv"] = csv
		if txt != g.Paper.Reports[name+".txt"] || csv != g.Paper.Reports[name+".csv"] {
			o.failed++
			fmt.Fprintf(e.log, "op %s failed: report differs from its golden\n", name)
		}
	}
	return o
}

// campaign runs one seed's campaign through fuzzer.RunCampaign, inside a
// span of the benchmark's own, and reports whether the seed's op failed:
// a finding or an error.
func (e *runEnv) campaign(cfg fuzzer.CampaignConfig) (*fuzzer.CampaignReport, bool) {
	var span telemetry.SpanID
	if e.tr != nil {
		span = e.tr.Begin(0, telemetry.SpanCell, fmt.Sprintf("perfbench seed %d", cfg.SeedBase), "", "")
		e.seedSpans = append(e.seedSpans, span)
	}
	prev := e.tr.SetAmbient(span)
	rep := fuzzer.RunCampaign(cfg)
	e.tr.SetAmbient(prev)
	e.tr.End(span, uint64(len(rep.Findings)), uint64(cfg.SeedBase), len(rep.Errors) > 0)
	if len(rep.Findings) == 0 && len(rep.Errors) == 0 {
		return rep, false
	}
	fmt.Fprintf(e.log, "op seed %d failed:\n%s", cfg.SeedBase, rep)
	return rep, true
}

func (e *runEnv) counter(name string) uint64 {
	return uint64(readCounters(e.reg)[name])
}

// runFuzz runs the differential campaign with nachofuzz's defaults — six
// systems, three random failure schedules each, a 512 B 2-way cache,
// minimisation on — one op per program seed.
func runFuzz(e *runEnv, seed int64, programs []int64, g *goldens) outcome {
	var o outcome
	cycles := e.counter("nacho_harness_simulated_cycles_total")
	h := sha256.New()
	for _, s := range programs {
		rep, failed := e.campaign(fuzzer.CampaignConfig{Seeds: 1, SeedBase: s, Minimize: true})
		io.WriteString(h, rep.String())
		o.ops++
		if failed {
			o.failed++
		}
	}
	o.observed.Fuzz = fuzzGolden{
		Report: hex.EncodeToString(h.Sum(nil)),
		Cycles: e.counter("nacho_harness_simulated_cycles_total") - cycles,
	}
	o.simCycles = o.observed.Fuzz.Cycles
	if seed == defaultSeed {
		o.simCycles = g.Fuzz.Cycles
		if o.observed.Fuzz.Report != g.Fuzz.Report {
			// The combined digest cannot say which seed's report changed.
			fmt.Fprintln(e.log, "fuzz reports differ from their golden")
			o.failed = o.ops
		}
	}
	return o
}

// runCrashExplore runs the exhaustive campaign as nachofuzz -exhaustive does
// — every crash instant of the first two checkpoint intervals, stride 1, six
// systems — one op per program seed, until crashBootBudget.
func runCrashExplore(e *runEnv, seed int64, programs []int64, g *goldens) outcome {
	var o outcome
	pinned := g.CrashExplore.Seeds
	for _, s := range programs {
		if o.simCycles >= crashBootBudget {
			break
		}
		before := readCounters(e.reg)
		rep, failed := e.campaign(fuzzer.CampaignConfig{
			Seeds: 1, SeedBase: s, Minimize: true,
			Exhaustive: true, Intervals: 2, Stride: 1,
		})
		after := readCounters(e.reg)
		cs := crashSeed{
			Seed:       s,
			Instants:   uint64(after["nacho_snapshot_instants_total"] - before["nacho_snapshot_instants_total"]),
			BootCycles: uint64(after["nacho_snapshot_boot_cycles_total"] - before["nacho_snapshot_boot_cycles_total"]),
			Report:     digest(rep.String()),
		}
		o.observed.CrashExplore.Seeds = append(o.observed.CrashExplore.Seeds, cs)
		o.simCycles += cs.BootCycles
		if seed == defaultSeed && (o.ops >= len(pinned) || pinned[o.ops] != cs) {
			fmt.Fprintf(e.log, "op seed %d failed: %+v differs from its golden\n", s, cs)
			failed = true
		}
		o.ops++
		if failed {
			o.failed++
		}
	}
	return o
}
