package harness_test

import (
	"fmt"
	"reflect"
	"testing"

	"nacho/internal/emu"
	"nacho/internal/fuzzer"
	"nacho/internal/harness"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/systems"
)

// The engine-equivalence suite is the enforcement behind the execution
// engines' correctness claim: for every program, system, and failure
// schedule, both engines — the per-instruction reference interpreter and the
// AOT threaded-code engine — must produce byte-identical results: exit code,
// result words, output, every counter including the cycle count, and the
// final register file. With a probe attached they must also emit the same
// event stream, event for event.
// Errors (cycle-budget aborts, stack faults) must also be identical, message
// and all, because they encode the instant and pc at which the run died.

// equivalenceBudget bounds the failure-free runs. Intermittent runs, which
// can livelock (e.g. a periodic schedule shorter than a system's
// re-execution window), get the tighter scheduledBudget derived from the
// failure-free length. Hitting a budget is fine — both engines must then
// fail identically, message and all.
const equivalenceBudget = 24_000_000

// scheduledBudget is a generous multiple of the failure-free run length:
// ample for every terminating intermittent run, small enough that livelocked
// ones abort quickly.
func scheduledBudget(freeCycles uint64) uint64 {
	return freeCycles*8 + 200_000
}

// equivalenceVariants are the engines under test; the reference interpreter
// comes first so the other diffs against the specification.
var equivalenceVariants = []emu.Engine{emu.EngineRef, emu.EngineAOT}

// sameError reports whether two run errors are identical, message and all.
func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// runBoth executes the image under every engine and fails the test on any
// observable difference from the reference interpreter. It returns the
// reference result for callers that derive schedules from it. The suite runs
// through the store-free RunImageSys: the engine is not part of a run's
// identity, so a store would serve one engine's result to the other and the
// comparison would test nothing.
func runBoth(t *testing.T, label string, img *program.Image, kind systems.Kind, cfg harness.RunConfig) emu.Result {
	t.Helper()
	var ref emu.Result
	var refErr error
	for i, engine := range equivalenceVariants {
		cfg.Reference = engine == emu.EngineRef
		res, _, err := harness.RunImageSys(img, kind, cfg, false)
		if i == 0 {
			ref, refErr = res, err
			continue
		}
		if !sameError(err, refErr) {
			t.Fatalf("%s: %s diverges from ref on error:\n  %s: %v\n  ref: %v", label, engine, engine, err, refErr)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("%s: %s diverges from ref:\n  %s: %+v\n  ref: %+v", label, engine, engine, res, ref)
		}
	}
	return ref
}

// schedulesFor derives a spread of failure schedules from a failure-free run
// length: a finite burst of instants, a periodic schedule, and a seeded
// irregular one. All are deterministic.
func schedulesFor(cycles uint64) []power.Schedule {
	if cycles < 16 {
		cycles = 16
	}
	return []power.Schedule{
		nil,
		power.NewAt(cycles/7, cycles/3, cycles/2, cycles-cycles/5),
		power.Periodic{Period: cycles/5 + 13},
		power.NewUniform(cycles/9+1, cycles/4+2, 42),
	}
}

// equivalenceFuzzed runs check over the fuzzed programs: each seed's
// program failure-free, then under every schedule of schedulesFor with a
// final flush and, on every other schedule, forced checkpoints. It rotates
// through the system list so the suite covers every system without running
// the full cross product on every seed.
func equivalenceFuzzed(t *testing.T, check func(t *testing.T, label string, img *program.Image, kind systems.Kind, cfg harness.RunConfig) emu.Result) {
	kinds := systems.AllKinds()
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p := fuzzer.Generate(seed)
		img, err := p.Render()
		if err != nil {
			t.Fatalf("seed %d: render: %v", seed, err)
		}
		kind := kinds[int(seed)%len(kinds)]
		cfg := harness.RunConfig{CacheSize: 512, Ways: 2, MaxCycles: equivalenceBudget}
		free := check(t, fmt.Sprintf("seed %d %s failure-free", seed, kind), img, kind, cfg)
		for i, sched := range schedulesFor(free.Counters.Cycles) {
			if sched == nil {
				continue
			}
			c := cfg
			c.Schedule = sched
			c.MaxCycles = scheduledBudget(free.Counters.Cycles)
			c.FinalFlush = true
			if i%2 == 1 {
				c.ForcedCheckpointPeriod = free.Counters.Cycles/11 + 97
			}
			check(t, fmt.Sprintf("seed %d %s sched %s", seed, kind, sched.Key()), img, kind, c)
		}
	}
}

func TestEngineEquivalenceFuzzed(t *testing.T) { equivalenceFuzzed(t, runBoth) }

func TestEngineEquivalenceBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	kinds := []systems.Kind{systems.KindVolatile, systems.KindClank, systems.KindNACHO, systems.KindReplayCache}
	for _, name := range program.Names() {
		p, ok := program.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		img, err := p.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		for _, kind := range kinds {
			cfg := harness.RunConfig{CacheSize: 512, Ways: 2, MaxCycles: equivalenceBudget}
			free := runBoth(t, name+" on "+string(kind)+" failure-free", img, kind, cfg)
			cfg.Schedule = power.Periodic{Period: free.Counters.Cycles/4 + 1021}
			cfg.ForcedCheckpointPeriod = free.Counters.Cycles/8 + 509
			cfg.MaxCycles = scheduledBudget(free.Counters.Cycles)
			runBoth(t, name+" on "+string(kind)+" intermittent", img, kind, cfg)
		}
	}
}

// eventLog records the full probe event stream as rendered strings, so two
// streams can be compared event for event.
type eventLog struct {
	events []string
}

func (l *eventLog) add(kind string, e any) {
	l.events = append(l.events, fmt.Sprintf("%s%+v", kind, e))
}
func (l *eventLog) OnWriteBack(e sim.WriteBackEvent) { l.add("writeback", e) }
func (l *eventLog) OnCheckpointBegin(e sim.CheckpointEvent) {
	l.add("ckpt-begin", e)
}
func (l *eventLog) OnCheckpointCommit(e sim.CheckpointEvent) {
	l.add("ckpt-commit", e)
}
func (l *eventLog) OnPowerFailure(e sim.PowerEvent) { l.add("powerfail", e) }
func (l *eventLog) OnRestore(e sim.RestoreEvent)    { l.add("restore", e) }
func (l *eventLog) OnNVM(e sim.NVMEvent)            { l.add("nvm", e) }

// probeBoth runs the image on every engine twice, with a recording probe
// attached and without, and fails the test unless the probed streams are
// identical across engines on every hook, event for event, and each
// engine's probed result and error equal its unprobed ones. Every stream
// must hold an event, except a failure-free Volatile run's: the baseline
// has no NVM, write-backs or checkpoints to report. It returns the
// reference engine's result.
func probeBoth(t *testing.T, label string, img *program.Image, kind systems.Kind, cfg harness.RunConfig) emu.Result {
	t.Helper()
	var ref *eventLog
	var refRes emu.Result
	var refErr error
	for i, engine := range equivalenceVariants {
		c := cfg
		c.Reference = engine == emu.EngineRef
		plain, _, plainErr := harness.RunImageSys(img, kind, c, false)
		log := &eventLog{}
		c.Probe = log
		res, _, err := harness.RunImageSys(img, kind, c, false)
		if !sameError(err, plainErr) || !reflect.DeepEqual(res, plain) {
			t.Fatalf("%s: %s probed run differs from unprobed:\n  probed:   %+v (err %v)\n  unprobed: %+v (err %v)",
				label, engine, res, err, plain, plainErr)
		}
		if i == 0 {
			ref, refRes, refErr = log, res, err
			if len(ref.events) == 0 && (kind != systems.KindVolatile || cfg.Schedule != nil) {
				t.Fatalf("%s: probe recorded no events", label)
			}
			continue
		}
		if !sameError(err, refErr) || !reflect.DeepEqual(res, refRes) {
			t.Fatalf("%s: probed %s result differs from probed ref:\n  %s: %+v (err %v)\n  ref: %+v (err %v)",
				label, engine, engine, res, err, refRes, refErr)
		}
		for j, want := range ref.events {
			got := "<end of stream>"
			if j < len(log.events) {
				got = log.events[j]
			}
			if got != want {
				t.Fatalf("%s: probe stream under %s diverges from ref at event %d:\n  %s\n  ref: %s",
					label, engine, j, got, want)
			}
		}
		if len(log.events) != len(ref.events) {
			t.Fatalf("%s: probe stream under %s has %d events, ref %d", label, engine, len(log.events), len(ref.events))
		}
	}
	return refRes
}

// TestEngineEquivalenceProbeStream pins that a probe observes the same run
// on either engine. A recording probe attached under ref and under aot must
// see the same stream on every hook, event for event — the verifier, the
// telemetry feed and the snapshot scout (which finds the checkpoint
// boundaries through commit events) rely on it — and on each engine the
// probed result must equal the unprobed one: instrumentation observes the
// simulation without perturbing it. The cases are crc on NACHO and Clank
// under periodic failures, then the fuzzed programs of
// TestEngineEquivalenceFuzzed under its failure schedules and forced
// checkpoints.
func TestEngineEquivalenceProbeStream(t *testing.T) {
	p, ok := program.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	img, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.RunConfig{
		CacheSize: 512,
		Ways:      2,
		MaxCycles: equivalenceBudget,
		Schedule:  power.Periodic{Period: 300_000},
	}
	for _, kind := range []systems.Kind{systems.KindNACHO, systems.KindClank} {
		probeBoth(t, "crc on "+string(kind), img, kind, cfg)
	}
	equivalenceFuzzed(t, probeBoth)
}

// TestEngineEquivalenceForkRunUntil pins the mid-run surface the snapshot
// explorer depends on, across both engines: RunUntil must stop at the same
// instruction boundary (same cycle, same halt state), a Fork taken at that
// boundary must run to the same result under a failure schedule, and the
// parent must resume to the same end state after forking — whatever engine
// drives the prefix and the forks.
func TestEngineEquivalenceForkRunUntil(t *testing.T) {
	p, ok := program.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	img, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.RunConfig{CacheSize: 512, Ways: 2, MaxCycles: equivalenceBudget, Verify: false}
	refCfg := cfg
	refCfg.Reference = true
	free, _, err := harness.RunImageSys(img, systems.KindNACHO, refCfg, false)
	if err != nil {
		t.Fatal(err)
	}
	// The second target probes the stop-at-boundary edge: one cycle past the
	// first, so an engine that overshoots or undershoots the instruction
	// boundary by even a cycle diverges.
	targets := []uint64{free.Counters.Cycles / 3, free.Counters.Cycles/3 + 1}
	type snap struct {
		cycle  uint64
		halted bool
		regs   any
		fork   emu.Result
		final  emu.Result
	}
	var refSnaps []snap
	for i, v := range equivalenceVariants {
		c := cfg
		c.Reference = v == emu.EngineRef
		var snaps []snap
		for _, target := range targets {
			m, _, err := harness.BuildMachine(img, systems.KindNACHO, c)
			if err != nil {
				t.Fatalf("%s: build: %v", v, err)
			}
			halted, err := m.RunUntil(target)
			if err != nil {
				t.Fatalf("%s: RunUntil(%d): %v", v, target, err)
			}
			s := snap{cycle: m.Now(), halted: halted, regs: m.RegSnapshot()}
			f := m.Fork(power.Periodic{Period: free.Counters.Cycles/5 + 211})
			if s.fork, err = f.Run(); err != nil {
				t.Fatalf("%s: fork run: %v", v, err)
			}
			if s.final, err = m.Run(); err != nil {
				t.Fatalf("%s: parent resume: %v", v, err)
			}
			snaps = append(snaps, s)
		}
		if i == 0 {
			refSnaps = snaps
			continue
		}
		for j := range snaps {
			if !reflect.DeepEqual(snaps[j], refSnaps[j]) {
				t.Fatalf("%s diverges from ref at target %d:\n  %s: %+v\n  ref: %+v",
					v, targets[j], v, snaps[j], refSnaps[j])
			}
		}
	}
}
