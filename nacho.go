// Package nacho is the public API of the NACHO reproduction: a data cache
// for intermittent computing systems with non-volatile main memory
// (Mohapatra et al., ASPLOS 2025).
//
// The package runs RV32IM programs — the paper's benchmark suite or caller-
// supplied assembly — on a cycle-accounted emulator wired to one of the
// paper's memory systems (NACHO and its ablations, plus the Clank, PROWL,
// ReplayCache and fully volatile baselines), optionally under injected power
// failures, and reports the paper's metrics: execution cycles, checkpoints,
// and NVM traffic. Every access is cross-checked against a shadow memory and
// an exact WAR-violation detector unless verification is disabled.
//
// Quickstart:
//
//	res, err := nacho.Run(nacho.Config{Benchmark: "aes"})
//	fmt.Println(res.Cycles, res.Checkpoints, res.NVMBytes())
//
// See examples/ for complete programs and cmd/nachobench for regenerating
// the paper's tables and figures.
package nacho

import (
	"fmt"
	"io"
	"time"

	"nacho/internal/emu"
	"nacho/internal/harness"
	"nacho/internal/mem"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/systems"
	"nacho/internal/telemetry"
)

// System selects the memory system to simulate (paper Section 6.1.2).
type System string

// The available systems. NACHO is the paper's contribution; NaiveNACHO,
// OracleNACHO, NACHOPWOnly and NACHOSTOnly are its ablations; the rest are
// the compared baselines.
const (
	Volatile    System = "volatile"
	Clank       System = "clank"
	PROWL       System = "prowl"
	ReplayCache System = "replaycache"
	NaiveNACHO  System = "naive-nacho"
	NACHO       System = "nacho"
	OracleNACHO System = "oracle-nacho"
	NACHOPWOnly System = "nacho-pw"
	NACHOSTOnly System = "nacho-st"
	// WriteThrough is the Section 8 extension: a write-through cache with an
	// exact hardware WAR tracker (see internal/systems).
	WriteThrough System = "writethrough"
)

// Systems lists every selectable system.
func Systems() []System {
	var out []System
	for _, k := range systems.AllKinds() {
		out = append(out, System(k))
	}
	return out
}

// Benchmarks lists the paper's benchmark suite (Section 6.1.1).
func Benchmarks() []string { return program.Names() }

// BenchmarkDescription returns the one-line description of a benchmark.
func BenchmarkDescription(name string) (string, bool) {
	p, ok := program.ByName(name)
	if !ok {
		return "", false
	}
	return p.Description, true
}

// Config parameterizes one simulation. Zero fields take the paper's
// defaults: system NACHO, a 2-way 512 B cache, always-on power, verification
// enabled.
type Config struct {
	// Benchmark names one of Benchmarks(). Required for Run.
	Benchmark string
	// System selects the memory system (default NACHO).
	System System
	// CacheSize in bytes (default 512). Ignored by volatile and clank.
	CacheSize int
	// Ways is the cache associativity (default 2).
	Ways int
	// OnDurationMs, when non-zero, injects a periodic power failure every
	// that many milliseconds of active time (at the model's 50 MHz clock)
	// and arms the paper's forward-progress checkpoint at half the period.
	// The volatile system keeps no checkpoint, so it rejects a non-zero
	// value.
	OnDurationMs float64
	// RandomFailures replaces the periodic schedule with seeded-uniform
	// on-durations in [OnDurationMs/2, OnDurationMs].
	RandomFailures bool
	// Seed for RandomFailures (default 1).
	Seed int64
	// DisableVerify turns off shadow-memory and WAR checking (faster runs).
	DisableVerify bool
	// MaxInstructions overrides the runaway-guard instruction limit.
	MaxInstructions uint64
	// DirtyThreshold enables the adaptive checkpointing extension on
	// NACHO-family systems: checkpoint proactively once more than this many
	// cache lines are dirty (0 = off; paper Section 8).
	DirtyThreshold int
	// EnergyPrediction runs NACHO-family checkpoints single-buffered under a
	// guaranteed-energy window, halving checkpoint NVM writes (Section 8).
	EnergyPrediction bool
	// Trace, when non-nil, receives a per-instruction execution trace. A
	// traced run executes on the reference interpreter, the one engine that
	// retires instructions one at a time.
	Trace io.Writer
	// ProbeStats collects per-checkpoint-interval statistics through the
	// probe event pipeline (NVM traffic and write-back verdicts between
	// consecutive persistence points); the result carries them in
	// Result.ProbeStats. Slows the run slightly: every event is observed.
	ProbeStats bool
	// Perfetto, when non-nil, receives the run as Chrome trace-event JSON —
	// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing — with
	// checkpoint intervals as duration slices, power outages and write-back
	// verdicts on their own tracks, and an NVM-traffic counter track.
	Perfetto io.Writer
}

func (c Config) withDefaults() Config {
	if c.System == "" {
		c.System = NACHO
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.Ways == 0 {
		c.Ways = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) runConfig() harness.RunConfig {
	rc := harness.RunConfig{
		CacheSize:        c.CacheSize,
		Ways:             c.Ways,
		Verify:           !c.DisableVerify,
		MaxInstructions:  c.MaxInstructions,
		DirtyThreshold:   c.DirtyThreshold,
		EnergyPrediction: c.EnergyPrediction,
		Trace:            c.Trace,
	}
	if c.OnDurationMs > 0 {
		period := mem.CyclesForMillis(c.OnDurationMs)
		if c.RandomFailures {
			rc.Schedule = power.NewUniform(period/2, period, c.Seed)
		} else {
			rc.Schedule = power.Periodic{Period: period}
		}
		rc.ForcedCheckpointPeriod = period / 2
	}
	return rc
}

// Result reports the paper's evaluation metrics for one run
// (Section 6.1.3).
type Result struct {
	ExitCode   uint32
	ResultWord uint32 // the program's reported checksum
	Output     []byte // bytes the program printed

	Cycles       uint64
	Instructions uint64
	Loads        uint64
	Stores       uint64

	Checkpoints     uint64
	CheckpointLines uint64

	NVMReads      uint64
	NVMWrites     uint64
	NVMReadBytes  uint64
	NVMWriteBytes uint64

	CacheHits         uint64
	CacheMisses       uint64
	SafeEvictions     uint64
	UnsafeEvictions   uint64
	DroppedStackLines uint64

	Regions       uint64
	PowerFailures uint64

	AdaptiveCkpts      uint64 // checkpoints forced by the dirty-threshold policy
	MaxCheckpointLines uint64 // largest single checkpoint (capacitor sizing)

	// ProbeStats is set when Config.ProbeStats was enabled.
	ProbeStats *ProbeStats
}

// WriteBackCounts histograms write-back events by safety verdict.
type WriteBackCounts struct {
	Safe         uint64 // write-dominated dirty evictions written straight to NVM
	Unsafe       uint64 // read-dominated dirty evictions (checkpoint triggered)
	DroppedStack uint64 // dirty dead-stack lines discarded
	WriteThrough uint64 // stores written through to NVM
	Async        uint64 // evictions queued on a non-blocking write-back port
}

// Interval summarizes one checkpoint interval: the stretch of execution
// between two consecutive persistence points.
type Interval struct {
	StartCycle, EndCycle uint64
	NVMReadBytes         uint64
	NVMWriteBytes        uint64
	WriteBacks           WriteBackCounts
	CheckpointLines      int    // dirty-line payload of the closing checkpoint
	Kind                 string // "commit", "region", "jit", or "end" (end of run)
	PowerFailure         bool   // interval cut short by a power failure
}

// ProbeStats is the per-checkpoint-interval view of a run, collected through
// the probe pipeline (Config.ProbeStats).
type ProbeStats struct {
	Intervals []Interval
	Dropped   int // intervals beyond the storage cap (still in the totals)

	TotalNVMReadBytes  uint64
	TotalNVMWriteBytes uint64
	TotalWriteBacks    WriteBackCounts
}

func publicWriteBacks(w [sim.NumVerdicts]uint64) WriteBackCounts {
	return WriteBackCounts{
		Safe:         w[sim.VerdictSafe],
		Unsafe:       w[sim.VerdictUnsafe],
		DroppedStack: w[sim.VerdictDroppedStack],
		WriteThrough: w[sim.VerdictWriteThrough],
		Async:        w[sim.VerdictAsync],
	}
}

func publicProbeStats(s *sim.IntervalStats) *ProbeStats {
	out := &ProbeStats{
		Dropped:            s.Dropped,
		TotalNVMReadBytes:  s.TotalNVMReadBytes,
		TotalNVMWriteBytes: s.TotalNVMWriteBytes,
		TotalWriteBacks:    publicWriteBacks(s.TotalWriteBacks),
	}
	for _, iv := range s.Intervals {
		kind := iv.Kind.String()
		if iv.EndOfRun {
			kind = "end"
		}
		out.Intervals = append(out.Intervals, Interval{
			StartCycle:      iv.Start,
			EndCycle:        iv.End,
			NVMReadBytes:    iv.NVMReadBytes,
			NVMWriteBytes:   iv.NVMWriteBytes,
			WriteBacks:      publicWriteBacks(iv.WriteBacks),
			CheckpointLines: iv.Lines,
			Kind:            kind,
			PowerFailure:    iv.PowerFailure,
		})
	}
	return out
}

// NVMBytes is the paper's NVM-transfer metric: bytes moved in either
// direction.
func (r *Result) NVMBytes() uint64 { return r.NVMReadBytes + r.NVMWriteBytes }

// HitRate returns the data-cache hit rate in [0,1].
func (r *Result) HitRate() float64 {
	if t := r.CacheHits + r.CacheMisses; t > 0 {
		return float64(r.CacheHits) / float64(t)
	}
	return 0
}

// Duration converts cycles to wall time at the modelled 50 MHz clock.
func (r *Result) Duration() time.Duration {
	return time.Duration(float64(r.Cycles) / mem.ClockHz * float64(time.Second))
}

// Run executes one benchmark under the configured system. With verification
// enabled (the default) it returns an error on any shadow-memory mismatch,
// exact WAR violation, or checksum mismatch against the benchmark's Go
// reference implementation.
func Run(cfg Config) (*Result, error) {
	p, ok := program.ByName(cfg.Benchmark)
	if !ok {
		return nil, fmt.Errorf("nacho: unknown benchmark %q (see Benchmarks())", cfg.Benchmark)
	}
	img, err := p.Build()
	if err != nil {
		return nil, err
	}
	return run(img, cfg, true)
}

// run is Run's and RunSource's one path from a Config to a Result: it checks
// the config, runs img with the config's observers attached, and maps the
// outcome. checkGolden compares the reported result word against the
// image's expected checksum.
func run(img *program.Image, cfg Config, checkGolden bool) (*Result, error) {
	cfg = cfg.withDefaults()
	// The volatile baseline keeps no checkpoint: every failure restarts it
	// from its entry point, so under failures it never finishes.
	if cfg.System == Volatile && cfg.OnDurationMs > 0 {
		return nil, fmt.Errorf("nacho: system %s keeps no checkpoint and cannot run under power failures (OnDurationMs must be 0)", Volatile)
	}
	rc := cfg.runConfig()
	stats, tep := cfg.observers(&rc)
	res, err := harness.RunImage(img, systems.Kind(cfg.System), rc, checkGolden)
	if err := finishObservers(tep, res, err); err != nil {
		return nil, err
	}
	return newResult(res, stats), nil
}

// observers assembles the run's optional probe pipeline from the config: the
// interval-statistics collector and the Perfetto trace exporter observe the
// same event stream.
func (c Config) observers(rc *harness.RunConfig) (*sim.IntervalStats, *telemetry.TraceEventProbe) {
	var (
		stats  *sim.IntervalStats
		tep    *telemetry.TraceEventProbe
		probes []sim.Probe
	)
	if c.ProbeStats {
		stats = &sim.IntervalStats{}
		probes = append(probes, stats)
	}
	if c.Perfetto != nil {
		tep = telemetry.NewTraceEventProbe(c.Perfetto)
		probes = append(probes, tep)
	}
	rc.Probe = sim.Combine(probes...)
	return stats, tep
}

// finishObservers completes the observers once the run returns: it
// terminates a Perfetto export (so the document is loadable even after a
// failed run) and folds its write error into the run error.
func finishObservers(tep *telemetry.TraceEventProbe, res emu.Result, runErr error) error {
	if tep == nil {
		return runErr
	}
	if err := tep.Finish(res.Counters.Cycles); err != nil && runErr == nil {
		return fmt.Errorf("nacho: perfetto export: %w", err)
	}
	return runErr
}

// newResult maps an internal run result (and optional interval statistics)
// into the public Result.
func newResult(res emu.Result, stats *sim.IntervalStats) *Result {
	c := res.Counters
	out := &Result{
		ExitCode:           res.ExitCode,
		ResultWord:         res.Result,
		Output:             res.Output,
		Cycles:             c.Cycles,
		Instructions:       c.Instructions,
		Loads:              c.Loads,
		Stores:             c.Stores,
		Checkpoints:        c.Checkpoints,
		CheckpointLines:    c.CheckpointLines,
		NVMReads:           c.NVMReads,
		NVMWrites:          c.NVMWrites,
		NVMReadBytes:       c.NVMReadBytes,
		NVMWriteBytes:      c.NVMWriteBytes,
		CacheHits:          c.CacheHits,
		CacheMisses:        c.CacheMisses,
		SafeEvictions:      c.SafeEvictions,
		UnsafeEvictions:    c.UnsafeEvictions,
		DroppedStackLines:  c.DroppedStackLines,
		Regions:            c.Regions,
		PowerFailures:      c.PowerFailures,
		AdaptiveCkpts:      c.AdaptiveCkpts,
		MaxCheckpointLines: c.MaxCheckpointLines,
	}
	if stats != nil {
		stats.Finish(c.Cycles)
		out.ProbeStats = publicProbeStats(stats)
	}
	return out
}
