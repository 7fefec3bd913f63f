package fuzzer

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"nacho/internal/emu"
	"nacho/internal/harness"
	"nacho/internal/mem"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/systems"
	"nacho/internal/telemetry"
	"nacho/internal/verify"
)

// Config parameterizes the differential oracle.
type Config struct {
	// CacheSize/Ways configure the systems under test (defaults: the
	// paper's headline 512 B, 2-way).
	CacheSize int
	Ways      int
	// Schedules is the number of randomized finite failure schedules tried
	// per (program, system) pair, on top of the always-run failure-free
	// differential (default 3).
	Schedules int
	// Span, when non-zero, parents every oracle run's span on the campaign
	// tracer (the fuzz campaign sets it to the seed's cell span). Purely
	// observational.
	Span telemetry.SpanID
}

func (c Config) normalized() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.Ways == 0 {
		c.Ways = 2
	}
	if c.Schedules == 0 {
		c.Schedules = 3
	}
	return c
}

// DefaultKinds is the oracle's standard system matrix: every evaluated
// system with crash-consistency machinery (the Volatile baseline is the
// golden reference, not a subject).
func DefaultKinds() []systems.Kind {
	return []systems.Kind{
		systems.KindNACHO, systems.KindNaiveNACHO, systems.KindOracleNACHO,
		systems.KindClank, systems.KindPROWL, systems.KindReplayCache,
	}
}

// FindingKind classifies a divergence.
type FindingKind string

// The oracle's finding taxonomy.
const (
	// FindingRunError: the run aborted (trap, stack-guard hit, ...).
	FindingRunError FindingKind = "run-error"
	// FindingBudget: the run exceeded its cycle budget — forward progress
	// lost under a finite failure schedule.
	FindingBudget FindingKind = "cycle-budget"
	// FindingShadow: a load returned a value diverging from the exact
	// shadow memory.
	FindingShadow FindingKind = "shadow-mismatch"
	// FindingWAR: a physical NVM write-back hit a read-dominated location.
	FindingWAR FindingKind = "war-violation"
	// FindingResult: exit code, reported result word, or final registers
	// diverged from the golden run.
	FindingResult FindingKind = "result-divergence"
	// FindingNVM: final NVM data-segment bytes diverged from the golden run.
	FindingNVM FindingKind = "nvm-divergence"
)

// Finding is one confirmed divergence: the program, the system it diverged
// on, the failure schedule that provoked it, and what diverged.
type Finding struct {
	Seed     int64        `json:"seed"`
	System   systems.Kind `json:"system"`
	Kind     FindingKind  `json:"kind"`
	Detail   string       `json:"detail"`
	Prog     *Prog        `json:"prog,omitempty"`
	Schedule []uint64     `json:"schedule,omitempty"` // failure instants; nil = failure-free

	// Minimized marks a finding that went through Minimize; Instructions is
	// the rendered text length of the (possibly minimized) program.
	Minimized    bool `json:"minimized,omitempty"`
	Instructions int  `json:"instructions,omitempty"`
}

// String renders the finding as one deterministic report line.
func (f Finding) String() string {
	s := fmt.Sprintf("seed=%d system=%s kind=%s detail=%q", f.Seed, f.System, f.Kind, f.Detail)
	if len(f.Schedule) > 0 {
		s += fmt.Sprintf(" schedule=%v", f.Schedule)
	}
	if f.Minimized {
		s += fmt.Sprintf(" minimized=%d-instructions", f.Instructions)
	}
	return s
}

// Budgets. Failure-free runs get a flat generous ceiling (generated
// programs are structurally terminating, so hitting it means an emulator or
// renderer bug). Failure-injected runs get a budget derived from the
// system's own failure-free runtime: with n finite failure instants the
// worst case re-executes the whole program once per failure, so anything
// beyond (runtime + slack) * (n + 2) has lost forward progress.
const (
	failFreeMaxCycles   = 400_000_000
	fuzzMaxInstructions = 8_000_000
	budgetSlackCycles   = 50_000
)

func failureBudget(sysCycles uint64, nFailures int) uint64 {
	return (sysCycles + budgetSlackCycles) * uint64(nFailures+2)
}

// goldenRun is the reference outcome: the Volatile baseline's failure-free
// result plus the final bytes of every non-text segment.
type goldenRun struct {
	res  emu.Result
	data []segBytes
}

type segBytes struct {
	addr  uint32
	bytes []byte
}

func baseConfig(cfg Config) harness.RunConfig {
	return harness.RunConfig{
		CacheSize:       cfg.CacheSize,
		Ways:            cfg.Ways,
		FinalFlush:      true,
		MaxInstructions: fuzzMaxInstructions,
		MaxCycles:       failFreeMaxCycles,
		Span:            cfg.Span,
	}
}

// finalSegments reads the post-run bytes of every non-text segment out of
// the system's memory. Only data segments are compared: the checkpoint area
// and stack region legitimately differ between recovery models.
func finalSegments(img *program.Image, m sim.MemReaderWriter) []segBytes {
	var out []segBytes
	for _, seg := range img.Segments {
		if seg.Addr == mem.TextBase {
			continue
		}
		b := make([]byte, len(seg.Data))
		m.ReadBytes(seg.Addr, b)
		out = append(out, segBytes{addr: seg.Addr, bytes: b})
	}
	return out
}

// golden runs the program failure-free on the Volatile baseline.
func golden(img *program.Image, cfg Config) (*goldenRun, error) {
	oracleRuns.Add(1)
	res, sys, err := harness.RunImageSys(img, systems.KindVolatile, baseConfig(cfg), false)
	if sys != nil {
		defer sys.Release()
	}
	if err != nil {
		return nil, err
	}
	return &goldenRun{res: res, data: finalSegments(img, sys.Mem())}, nil
}

// prepare renders prog and runs its golden Volatile run, the start of every
// check of a generated program.
func prepare(prog *Prog, cfg Config) (*program.Image, *goldenRun, error) {
	img, err := prog.Render()
	if err != nil {
		return nil, nil, err
	}
	g, err := golden(img, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("fuzzer: seed %d golden run: %w", prog.Seed, err)
	}
	return img, g, nil
}

// findingCore is the classification of one divergent run.
type findingCore struct {
	kind     FindingKind
	detail   string
	schedule []uint64 // failure instants of the divergent run; nil = failure-free
}

// finding reports fc as prog's finding on kind.
func (fc *findingCore) finding(prog *Prog, kind systems.Kind) *Finding {
	return &Finding{Seed: prog.Seed, System: kind, Kind: fc.kind, Detail: fc.detail, Prog: prog, Schedule: fc.schedule}
}

// checkOne runs img on kind under sched (nil = failure-free) with the given
// cycle budget and the harness's verifier on, comparing the outcome against
// the golden run. It returns the first divergence (nil if none) and the
// run's cycle count. The run's system is released once the final-state
// comparison has read it.
func checkOne(img *program.Image, g *goldenRun, kind systems.Kind, sched power.Schedule, budget uint64, cfg Config) (*findingCore, uint64) {
	oracleRuns.Add(1)
	rc := baseConfig(cfg)
	rc.Schedule = sched
	rc.MaxCycles = budget
	rc.Verify = true
	res, sys, err := harness.RunImageSys(img, kind, rc, false)
	if sys != nil {
		defer sys.Release()
	}
	var v verify.Violation
	if errors.As(err, &v) {
		k := FindingShadow
		if v.Kind == verify.WARViolation {
			k = FindingWAR
		}
		return &findingCore{kind: k, detail: v.Error()}, res.Counters.Cycles
	}
	var m sim.MemReaderWriter
	if sys != nil {
		m = sys.Mem()
	}
	return diffAgainstGolden(res, err, m, g, budget), res.Counters.Cycles
}

// diffAgainstGolden classifies one completed run against the golden run:
// run errors (budget exhaustion separated out), then exit code, result word,
// final registers, and final NVM data-segment bytes. Shadow/WAR violations
// are the caller's concern — probe-free forked runs have no verifier, while
// from-boot confirmation runs classify through theirs first.
func diffAgainstGolden(res emu.Result, err error, m sim.MemReaderWriter, g *goldenRun, budget uint64) *findingCore {
	if err != nil {
		if errors.Is(err, emu.ErrCycleBudget) {
			return &findingCore{kind: FindingBudget, detail: fmt.Sprintf("no termination within %d cycles", budget)}
		}
		return &findingCore{kind: FindingRunError, detail: err.Error()}
	}
	if res.ExitCode != g.res.ExitCode {
		return &findingCore{kind: FindingResult, detail: fmt.Sprintf("exit code %d, golden %d", res.ExitCode, g.res.ExitCode)}
	}
	if res.Result != g.res.Result {
		return &findingCore{kind: FindingResult, detail: fmt.Sprintf("result 0x%08x, golden 0x%08x", res.Result, g.res.Result)}
	}
	if res.FinalRegs != g.res.FinalRegs {
		return &findingCore{kind: FindingResult, detail: regDiff(res.FinalRegs, g.res.FinalRegs)}
	}
	for _, seg := range g.data {
		if i := m.FirstDiff(seg.addr, seg.bytes); i >= 0 {
			a := seg.addr + uint32(i)
			return &findingCore{kind: FindingNVM, detail: fmt.Sprintf("NVM byte 0x%08x = 0x%02x, golden 0x%02x", a, m.ReadRaw(a, 1), seg.bytes[i])}
		}
	}
	return nil
}

func regDiff(got, want sim.Snapshot) string {
	if got.PC != want.PC {
		return fmt.Sprintf("final pc 0x%08x, golden 0x%08x", got.PC, want.PC)
	}
	for i := range got.Regs {
		if got.Regs[i] != want.Regs[i] {
			return fmt.Sprintf("final x%d = 0x%08x, golden 0x%08x", i+1, got.Regs[i], want.Regs[i])
		}
	}
	return "final registers diverged"
}

// failureWindow is the cycle range failure instants are drawn from: the
// system's measured failure-free runtime plus a 25% tail, so late failures
// (during the halt sequence and final flush) are exercised too.
func failureWindow(sysCycles uint64) uint64 {
	return max(sysCycles+sysCycles/4, 16)
}

// differential is the oracle's one check of a program on one system: the
// failure-free differential first, which also measures the runtime that
// sets the failure window and budgets, then, while the runs still agree,
// each failure schedule that schedules (nil for none) draws from the
// window, under the failure budget of its instant count. An empty schedule
// is the failure-free run again and is skipped. It returns the first
// divergence (nil if none) and the failure-free run's cycle count.
func differential(img *program.Image, g *goldenRun, kind systems.Kind, cfg Config, schedules func(window uint64) [][]uint64) (*findingCore, uint64) {
	fc, sysCycles := checkOne(img, g, kind, nil, failFreeMaxCycles, cfg)
	if fc != nil || schedules == nil {
		return fc, sysCycles
	}
	for _, instants := range schedules(failureWindow(sysCycles)) {
		if len(instants) == 0 {
			continue
		}
		sched := power.NewAt(instants...)
		if fc, _ := checkOne(img, g, kind, sched, failureBudget(sysCycles, len(instants)), cfg); fc != nil {
			fc.schedule = sched.Instants()
			return fc, sysCycles
		}
	}
	return nil, sysCycles
}

// only is the schedules of a check that replays one recorded schedule.
func only(instants []uint64) func(uint64) [][]uint64 {
	return func(uint64) [][]uint64 { return [][]uint64{instants} }
}

// randomSchedules draws n schedules of 1-6 failure instants inside the
// failure window. The RNG is a PCG seeded with the program seed and the
// FNV-1a hash of the system name, so each system sees different failure
// instants for the same program; its two words of state cost nothing to
// seed, where math/rand's source seeds 607. Finite instants guarantee
// termination: after the last one the run is failure-free.
func randomSchedules(seed int64, kind systems.Kind, n int) func(uint64) [][]uint64 {
	return func(window uint64) [][]uint64 {
		h := fnv.New64a()
		h.Write([]byte(kind))
		rng := rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
		scheds := make([][]uint64, n)
		for i := range scheds {
			scheds[i] = make([]uint64, 1+rng.IntN(6))
			for j := range scheds[i] {
				scheds[i][j] = 1 + rng.Uint64N(window)
			}
		}
		return scheds
	}
}

// Check runs the differential oracle for one generated program across the
// given systems: per system, the failure-free differential, then
// cfg.Schedules randomized failure schedules. The returned error reports
// infrastructure problems (the program failed to render or to run on the
// Volatile baseline); findings report genuine divergences, at most one per
// system (its first).
func Check(prog *Prog, kinds []systems.Kind, cfg Config) ([]Finding, error) {
	cfg = cfg.normalized()
	img, g, err := prepare(prog, cfg)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, kind := range kinds {
		if fc, _ := differential(img, g, kind, cfg, randomSchedules(prog.Seed, kind, cfg.Schedules)); fc != nil {
			findingsTotal.Add(1)
			out = append(out, *fc.finding(prog, kind))
		}
	}
	return out, nil
}

// CheckRawSchedule runs the oracle for one program on one system under a
// failure schedule decoded from raw fuzz-engine bytes (power.FromBytes),
// with each instant folded into the failure window. The native fuzz
// harnesses use it so the engine controls both the program shape and the
// failure instants.
func CheckRawSchedule(prog *Prog, kind systems.Kind, cfg Config, raw []byte) (*Finding, error) {
	cfg = cfg.normalized()
	img, g, err := prepare(prog, cfg)
	if err != nil {
		return nil, err
	}
	fc, _ := differential(img, g, kind, cfg, func(window uint64) [][]uint64 {
		var instants []uint64
		for _, inst := range power.FromBytes(raw).Instants() {
			instants = append(instants, 1+inst%window)
		}
		return [][]uint64{instants}
	})
	if fc == nil {
		return nil, nil
	}
	findingsTotal.Add(1)
	return fc.finding(prog, kind), nil
}
