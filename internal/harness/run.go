// Package harness runs benchmarks under systems and regenerates the paper's
// tables and figures (Section 6.2). It is the engine behind cmd/nachobench,
// the integration tests, and the root bench_test.go.
package harness

import (
	"fmt"
	"io"
	"time"

	"nacho/internal/emu"
	"nacho/internal/mem"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/store"
	"nacho/internal/systems"
	"nacho/internal/telemetry"
	"nacho/internal/trace"
	"nacho/internal/verify"
)

// RunConfig parameterizes one benchmark execution.
type RunConfig struct {
	CacheSize int // bytes; ignored by cacheless systems
	Ways      int
	Schedule  power.Schedule // nil = always-on
	// ForcedCheckpointPeriod in cycles (0 = none); the paper uses half the
	// power-failure on-duration.
	ForcedCheckpointPeriod uint64
	// Verify enables shadow memory + exact WAR checking, and asserts the
	// program reports its reference checksum.
	Verify bool
	// MaxInstructions overrides the emulator's runaway guard (0 = default).
	MaxInstructions uint64

	// DirtyThreshold and EnergyPrediction enable the Section 8 extension
	// policies on NACHO-family systems (see systems.Config).
	DirtyThreshold   int
	EnergyPrediction bool

	// Trace receives a per-instruction execution trace when non-nil
	// (rendered through the buffered trace.Recorder, which the emulator
	// feeds directly). A traced run executes on the reference interpreter
	// (emu.Executed) and bypasses the run cache and the store.
	Trace io.Writer
	// Probe, when non-nil, observes the run's full event stream alongside
	// the verifier (see sim.Probe). Probed runs bypass the run cache and
	// the store.
	Probe sim.Probe
	// MaxCycles is a hard cycle budget passed to the emulator (see
	// emu.Config.MaxCycles); 0 means no budget. The crash-consistency fuzzer
	// uses it as its non-termination oracle.
	MaxCycles uint64
	// FinalFlush asks the emulator for one failure-free ForceCheckpoint after
	// a clean halt (see emu.Config.FinalFlush), so every surviving store is
	// visible in NVM for post-run state comparison.
	FinalFlush bool
	// Reference runs the simulation on the reference interpreter (see
	// emu.Config.Reference): the referee switch the engine-equivalence suite
	// sets to obtain each side of its comparison. No command, public field
	// or fuzz setting reaches it. Because the suite holds the engines equal,
	// it is not part of the run identity.
	Reference bool
	// Span, when non-zero, parents the run span this run emits on the
	// campaign tracer; zero attaches it to the tracer's ambient span. Purely
	// observational: it is not part of the run identity.
	Span telemetry.SpanID
}

// DefaultRunConfig is the paper's headline configuration: a 2-way 512 B
// cache, verification on.
func DefaultRunConfig() RunConfig {
	return RunConfig{CacheSize: 512, Ways: 2, Verify: true}
}

// observed reports whether the run carries a trace or a probe. The caller
// wants their side effects, which a cached or stored result would swallow,
// so an observed run always executes: it bypasses the run cache and the
// store.
func (cfg RunConfig) observed() bool { return cfg.Trace != nil || cfg.Probe != nil }

// identity is the one description of a run's identity: every RunConfig field
// that can change the result, plus the image, the system and the golden
// check. The fields that cannot change results — Trace, Probe, Reference and
// Span — stay out (TestIdentityCoversResultAffectingFields). It keys the
// in-process run cache, its digest names the run's store object, and it
// fills the ledger's identity columns.
func identity(img *program.Image, kind systems.Kind, cfg RunConfig, checkGolden bool) store.Key {
	schedule := "none"
	if cfg.Schedule != nil {
		schedule = cfg.Schedule.Key()
	}
	return store.Key{
		Program:                img.Program.Name,
		ImageHash:              img.Hash(),
		System:                 string(kind),
		CacheSize:              cfg.CacheSize,
		Ways:                   cfg.Ways,
		Schedule:               schedule,
		ForcedCheckpointPeriod: cfg.ForcedCheckpointPeriod,
		MaxInstructions:        cfg.MaxInstructions,
		MaxCycles:              cfg.MaxCycles,
		FinalFlush:             cfg.FinalFlush,
		Verify:                 cfg.Verify,
		CheckGolden:            checkGolden,
		DirtyThreshold:         cfg.DirtyThreshold,
		EnergyPrediction:       cfg.EnergyPrediction,
	}
}

// request is one run on its way down the run path — the run cache, then the
// store, then the ledger — carrying its identity once the first of them has
// computed it. A run that meets none of them (no regeneration, no store, no
// ledger) computes none.
type request struct {
	img         *program.Image
	kind        systems.Kind
	cfg         RunConfig
	checkGolden bool
	key         *store.Key // nil until computed
	engine      emu.Engine // the engine that ran, once execute has run
}

// identity returns the request's identity, computing it on first use.
func (r *request) identity() *store.Key {
	if r.key == nil {
		k := identity(r.img, r.kind, r.cfg, r.checkGolden)
		r.key = &k
	}
	return r.key
}

// Run executes one benchmark under one system and returns the emulator
// result. With cfg.Verify set it fails on any shadow/WAR violation or on a
// checksum mismatch against the Go reference implementation. When a
// persistent run store is installed (SetStore), the result may be served from
// it without executing.
func Run(p *program.Program, kind systems.Kind, cfg RunConfig) (emu.Result, error) {
	img, err := p.Build()
	if err != nil {
		return emu.Result{}, err
	}
	res, err, _ := runImageStored(&request{img: img, kind: kind, cfg: cfg, checkGolden: true})
	return res, err
}

// RunImage executes an assembled image (a built-in benchmark or a caller-
// supplied program) under one system. checkGolden additionally compares the
// program's reported result word against the image's expected checksum. Like
// Run, it reads and writes through the installed persistent run store.
func RunImage(img *program.Image, kind systems.Kind, cfg RunConfig, checkGolden bool) (emu.Result, error) {
	res, err, _ := runImageStored(&request{img: img, kind: kind, cfg: cfg, checkGolden: checkGolden})
	return res, err
}

// RunImageSys is RunImage, additionally returning the memory system the run
// executed on. Callers that compare post-run NVM state (the differential
// fuzzer, the metamorphic tests) read it through sys.Mem(); everyone else
// should use RunImage, which discards it. The caller owns the system: once
// done reading it, it calls sys.Release to give its memory back (dropping it
// instead leaves it to the garbage collector). It never touches the run
// store.
func RunImageSys(img *program.Image, kind systems.Kind, cfg RunConfig, checkGolden bool) (emu.Result, sim.System, error) {
	r := request{img: img, kind: kind, cfg: cfg, checkGolden: checkGolden}
	return r.execute()
}

// execute runs the request's simulation and appends its ledger record.
func (r *request) execute() (emu.Result, sim.System, error) {
	img, kind, cfg := r.img, r.kind, r.cfg
	frozen, err := img.FrozenSpace()
	if err != nil {
		return emu.Result{}, nil, err
	}

	// Instrumentation is one probe pipeline: the verifier and the caller
	// probe observe the same event stream. Combine keeps the
	// no-instrumentation fast path emission-free (a nil probe everywhere).
	// The emulator also hands the verifier every CPU data access, and feeds
	// the trace recorder; neither is a probe event.
	var ver *verify.Verifier
	if cfg.Verify {
		ver = verify.New(frozen, systems.VerifyConfigFor(kind))
	}
	var observers []sim.Probe
	if ver != nil {
		observers = append(observers, ver)
	}
	observers = append(observers, cfg.Probe)
	probe := sim.Combine(observers...)
	var rec *trace.Recorder
	if cfg.Trace != nil {
		rec = trace.NewRecorder(cfg.Trace)
	}

	machine, sys, err := newMachineOn(frozen.Fork(), img, kind, cfg, probe, ver, rec)
	if err != nil {
		return emu.Result{}, nil, err
	}

	// Campaign observability brackets the run: a span on the installed tracer
	// (no-ops when tracing is off), and — at the single exit below, once the
	// final verdict is known — the run's accounting (runFinished) and one
	// ledger record. All of them name the engine the machine runs on.
	engine := machine.Engine()
	r.engine = engine
	name := img.Program.Name
	tr := telemetry.ActiveTracer()
	span := tr.Begin(cfg.Span, telemetry.SpanRun, name, string(kind), string(engine))
	runStarted()
	startWall := time.Now()
	res, err := machine.Run()
	wallMicros := time.Since(startWall).Microseconds()
	if err != nil {
		err = fmt.Errorf("%s on %s: %w", name, kind, err)
	} else if verr := ver.Err(); verr != nil {
		err = fmt.Errorf("%s on %s: %w", name, kind, verr)
	} else if cfg.Verify && r.checkGolden {
		if res.ExitCode != 0 {
			err = fmt.Errorf("%s on %s: exit code %d", name, kind, res.ExitCode)
		} else if res.Result != img.Expected {
			err = fmt.Errorf("%s on %s: result 0x%08x, reference 0x%08x",
				name, kind, res.Result, img.Expected)
		}
	}
	if rec != nil {
		// A run that succeeded but whose trace was not written fails: the
		// trace is the output the caller asked for. Traced runs bypass the
		// run cache and the store, so the error is never cached.
		if ferr := rec.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("%s on %s: trace: %w", name, kind, ferr)
		}
	}
	tr.End(span, res.Counters.Cycles, res.Counters.Instructions, err != nil)
	runFinished(engine, wallMicros, &res.Counters)
	appendLedger(r, engine, res, err, wallMicros, outcomeExecuted)
	ver.Release()
	return res, sys, err
}

// newMachineOn assembles the memory system and emulator over an
// already-loaded space. probe (nil for none) observes the run (emu.New
// attaches it to the system as well as the machine), ver (nil for none)
// receives the machine's CPU data accesses, and rec (nil for none) receives
// its trace; the emulator clones cfg.Schedule itself, so one RunConfig value
// can be shared freely across machines and goroutines.
func newMachineOn(space *mem.Space, img *program.Image, kind systems.Kind, cfg RunConfig, probe sim.Probe, ver *verify.Verifier, rec *trace.Recorder) (*emu.Machine, sim.System, error) {
	sys, err := systems.Build(kind, space, systems.Config{
		CacheSize:        cfg.CacheSize,
		Ways:             cfg.Ways,
		DirtyThreshold:   cfg.DirtyThreshold,
		EnergyPrediction: cfg.EnergyPrediction,
	})
	if err != nil {
		return nil, nil, err
	}
	machine := emu.New(sys, img.Text, img.Entry, emu.Config{
		Schedule:               cfg.Schedule,
		ForcedCheckpointPeriod: cfg.ForcedCheckpointPeriod,
		MaxInstructions:        cfg.MaxInstructions,
		MaxCycles:              cfg.MaxCycles,
		FinalFlush:             cfg.FinalFlush,
		Probe:                  probe,
		Verifier:               ver,
		Trace:                  rec,
		Reference:              cfg.Reference,
	})
	return machine, sys, nil
}

// BuildMachine assembles the memory image, system, and emulator for one run
// without executing it. cfg.Probe (when non-nil) observes the run;
// cfg.Verify and cfg.Trace are RunImageSys concerns and are ignored here.
// The snapshot-fork explorer uses BuildMachine as its machine factory,
// owning the run loop itself.
func BuildMachine(img *program.Image, kind systems.Kind, cfg RunConfig) (*emu.Machine, sim.System, error) {
	frozen, err := img.FrozenSpace()
	if err != nil {
		return nil, nil, err
	}
	return newMachineOn(frozen.Fork(), img, kind, cfg, cfg.Probe, nil, nil)
}
