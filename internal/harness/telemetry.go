package harness

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nacho/internal/emu"
	"nacho/internal/metrics"
	"nacho/internal/telemetry"
)

// Live observability of the harness: every run and the worker pool update a
// process-wide set of atomics, which RegisterMetrics exposes as Prometheus
// series and Status snapshots as the /status JSON document. The accounting is
// per-run (a few atomic adds and one locked counter fold around a whole
// simulation), so it costs nothing measurable against the per-event hot path
// and stays on unconditionally.
var pool struct {
	runsStarted   atomic.Uint64
	cacheHits     atomic.Uint64
	cacheBypassed atomic.Uint64 // probed/traced runs that skipped the run cache
	storeHits     atomic.Uint64 // runs served from the persistent store without executing
	workersBusy   atomic.Int64
	firstRunNano  atomic.Int64 // wall clock of the first run, for cycles/sec

	mu         sync.Mutex
	experiment string
	jobsTotal  int
	jobsDone   uint64
	activeJobs map[int]WorkerJob // worker id -> current job
}

// runStarted accounts the start of one simulation.
func runStarted() {
	pool.runsStarted.Add(1)
	pool.firstRunNano.CompareAndSwap(0, time.Now().UnixNano())
}

// beginExperiment publishes the experiment an upcoming prewarm fan-out
// belongs to; endExperiment clears it.
func beginExperiment(title string, jobs int) {
	pool.mu.Lock()
	pool.experiment = title
	pool.jobsTotal = jobs
	pool.jobsDone = 0
	pool.mu.Unlock()
}

func endExperiment() {
	pool.mu.Lock()
	pool.experiment = ""
	pool.jobsTotal = 0
	pool.jobsDone = 0
	pool.mu.Unlock()
}

// workerStarted/workerDone bracket one prewarm job on one worker.
func workerStarted(worker int, r *request) {
	pool.workersBusy.Add(1)
	pool.mu.Lock()
	if pool.activeJobs == nil {
		pool.activeJobs = make(map[int]WorkerJob)
	}
	pool.activeJobs[worker] = WorkerJob{Worker: worker, Program: r.img.Program.Name, System: string(r.kind)}
	pool.mu.Unlock()
}

func workerDone(worker int) {
	pool.workersBusy.Add(-1)
	pool.mu.Lock()
	delete(pool.activeJobs, worker)
	pool.jobsDone++
	pool.mu.Unlock()
}

// RunWallBuckets are the inclusive upper bounds, in microseconds, of the run
// wall-time histograms: a 1-3-10 ladder from 100 µs (a short cached-size run)
// to 10 s (a long verified schedule sweep cell).
var RunWallBuckets = []uint64{100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000, 3000000, 10000000}

// engineStats is the always-on per-engine accounting behind the
// nacho_harness_engine_* series and the dashboard's sim-MIPS table: run and
// retired-instruction counts plus a wall-time histogram per concrete engine.
// The map is built once and never mutated, so lookups are lock-free.
type engineStat struct {
	runs  atomic.Uint64
	instr atomic.Uint64
	wall  *telemetry.Histogram // run wall time in microseconds
}

var engineStats = func() map[emu.Engine]*engineStat {
	m := make(map[emu.Engine]*engineStat, 2)
	for _, e := range []emu.Engine{emu.EngineRef, emu.EngineAOT} {
		m[e] = &engineStat{wall: telemetry.NewHistogram(RunWallBuckets)}
	}
	return m
}()

// executedEngine reports the engine a run actually executes on, by the
// emulator's own rule (emu.Executed): the reference interpreter for a
// Reference or traced run, the AOT engine otherwise. Verified and probed
// runs execute on AOT like any other. The run span, the ledger's engine
// column, Report.Timing's engine clause and the nacho_harness_engine_*
// series all name this engine.
func executedEngine(cfg RunConfig) emu.Engine {
	return emu.Executed(cfg.Reference, cfg.Trace != nil)
}

// simulated is the sum of every executed run's counters, the one source of
// the nacho_sim_* series and of nacho_harness_simulated_cycles_total. Runs
// served from the run cache or the store add nothing, because nothing was
// simulated; snapshot forks are not harness runs and count in
// nacho_snapshot_* instead.
var simulated struct {
	mu  sync.Mutex
	sum metrics.Counters
}

// runFinished accounts one executed simulation: the run, its instructions
// and its wall time against the engine that ran it, and its counters into
// the simulated sum.
func runFinished(engine emu.Engine, wallMicros int64, c *metrics.Counters) {
	st := engineStats[engine]
	st.runs.Add(1)
	st.instr.Add(c.Instructions)
	st.wall.Observe(uint64(wallMicros))
	simulated.mu.Lock()
	simulated.sum.Add(*c)
	simulated.mu.Unlock()
}

// runsCompleted counts executed simulations: the runs of both engines.
func runsCompleted() uint64 {
	return engineStats[emu.EngineRef].runs.Load() + engineStats[emu.EngineAOT].runs.Load()
}

// readSimulated returns a reader of one field of the simulated sum.
func readSimulated(field func(*metrics.Counters) uint64) func() uint64 {
	return func() uint64 {
		simulated.mu.Lock()
		defer simulated.mu.Unlock()
		return field(&simulated.sum)
	}
}

// simulatedCycles reads the simulated sum's cycles.
var simulatedCycles = readSimulated(func(c *metrics.Counters) uint64 { return c.Cycles })

// Served-outcome labels for appendLedger: a run record is either an actual
// execution (outcomeExecuted), a result served from the in-process run cache
// (outcomeCacheHit), or one served from the persistent store
// (outcomeStoreHit).
const (
	outcomeExecuted = ""
	outcomeCacheHit = "cache-hit"
	outcomeStoreHit = "store-hit"
)

// appendLedger writes one run record to the installed campaign ledger; a
// no-op when none is installed. The identity columns come from the request's
// identity, whose digest fills the key column. served marks a result that was
// not executed: outcomeCacheHit (in-process run cache) or outcomeStoreHit
// (persistent store); counters are the original run's, wall time 0. A run
// error takes precedence over the served outcome so failures are always
// greppable as "error".
func appendLedger(r *request, engine emu.Engine, res emu.Result, err error, wallMicros int64, served string) {
	l := telemetry.ActiveLedger()
	if l == nil {
		return
	}
	key := r.identity()
	rec := telemetry.Record{
		V:             telemetry.LedgerVersion,
		Key:           key.Digest(),
		Program:       key.Program,
		System:        key.System,
		Engine:        string(engine),
		Cache:         key.CacheSize,
		Ways:          key.Ways,
		Schedule:      key.Schedule,
		Outcome:       "ok",
		Bypass:        served == outcomeExecuted && r.cfg.observed(),
		Cycles:        res.Counters.Cycles,
		Instructions:  res.Counters.Instructions,
		Checkpoints:   res.Counters.Checkpoints,
		NVMReadBytes:  res.Counters.NVMReadBytes,
		NVMWriteBytes: res.Counters.NVMWriteBytes,
		CacheHits:     res.Counters.CacheHits,
		CacheMisses:   res.Counters.CacheMisses,
		PowerFailures: res.Counters.PowerFailures,
		WallMicros:    wallMicros,
	}
	if served != outcomeExecuted {
		rec.Outcome = served
	}
	if err != nil {
		rec.Outcome = "error"
		rec.Error = err.Error()
	}
	l.Append(&rec)
}

// WorkerJob is one in-flight worker-pool job in a Status snapshot.
type WorkerJob struct {
	Worker  int    `json:"worker"`
	Program string `json:"program"`
	System  string `json:"system"`
}

// PoolStatus is the live harness progress document served at /status.
type PoolStatus struct {
	Workers               int         `json:"workers"`
	Busy                  int         `json:"busy"`
	RunsStarted           uint64      `json:"runs_started"`
	RunsCompleted         uint64      `json:"runs_completed"`
	CacheHits             uint64      `json:"cache_hits"`
	StoreHits             uint64      `json:"store_hits"`
	CacheBypassedProbed   uint64      `json:"cache_bypassed_probed"`
	SimulatedCycles       uint64      `json:"simulated_cycles"`
	SimulatedCyclesPerSec float64     `json:"simulated_cycles_per_sec"`
	Experiment            string      `json:"experiment,omitempty"`
	ExperimentJobs        int         `json:"experiment_jobs"`
	ExperimentJobsDone    uint64      `json:"experiment_jobs_done"`
	ActiveJobs            []WorkerJob `json:"active_jobs"`
}

// Status snapshots the harness's live progress. It is safe to call from any
// goroutine at any time, including mid-sweep.
func Status() PoolStatus {
	st := PoolStatus{
		Workers:             Workers(),
		Busy:                int(pool.workersBusy.Load()),
		RunsStarted:         pool.runsStarted.Load(),
		RunsCompleted:       runsCompleted(),
		CacheHits:           pool.cacheHits.Load(),
		StoreHits:           pool.storeHits.Load(),
		CacheBypassedProbed: pool.cacheBypassed.Load(),
		SimulatedCycles:     simulatedCycles(),
		ActiveJobs:          []WorkerJob{},
	}
	if first := pool.firstRunNano.Load(); first != 0 {
		if secs := time.Since(time.Unix(0, first)).Seconds(); secs > 0 {
			st.SimulatedCyclesPerSec = float64(st.SimulatedCycles) / secs
		}
	}
	pool.mu.Lock()
	st.Experiment = pool.experiment
	st.ExperimentJobs = pool.jobsTotal
	st.ExperimentJobsDone = pool.jobsDone
	for _, j := range pool.activeJobs {
		st.ActiveJobs = append(st.ActiveJobs, j)
	}
	pool.mu.Unlock()
	sort.Slice(st.ActiveJobs, func(i, k int) bool { return st.ActiveJobs[i].Worker < st.ActiveJobs[k].Worker })
	return st
}

// counterSeries gives each metrics.Counters field exactly one series, each
// interval-histogram bucket one labelled series. A series keeps a name only
// while its field means exactly what the name says, so Checkpoints, which
// also counts ReplayCache's just-in-time saves, is unlabelled. Cycles keeps
// its harness name; MaxCheckpointLines, a running maximum, is the one gauge.
var counterSeries = []struct {
	name, help string
	labels     []telemetry.Label
	gauge      bool
	field      func(*metrics.Counters) uint64
}{
	{name: "nacho_harness_simulated_cycles_total", help: "Simulated cycles summed across completed runs.",
		field: func(c *metrics.Counters) uint64 { return c.Cycles }},
	{name: "nacho_sim_instructions_total", help: "Instructions retired, including re-executed ones.",
		field: func(c *metrics.Counters) uint64 { return c.Instructions }},
	{name: "nacho_sim_loads_total", help: "Data loads retired.",
		field: func(c *metrics.Counters) uint64 { return c.Loads }},
	{name: "nacho_sim_stores_total", help: "Data stores retired.",
		field: func(c *metrics.Counters) uint64 { return c.Stores }},
	{name: "nacho_sim_checkpoints_total", help: "Committed checkpoints, ReplayCache's just-in-time saves included.",
		field: func(c *metrics.Counters) uint64 { return c.Checkpoints }},
	{name: "nacho_sim_checkpoint_lines_total", help: "Dirty cache lines persisted by committed checkpoints.",
		field: func(c *metrics.Counters) uint64 { return c.CheckpointLines }},
	{name: "nacho_sim_checkpoint_lines_max", help: "Dirty cache lines in the largest single checkpoint of any run.", gauge: true,
		field: func(c *metrics.Counters) uint64 { return c.MaxCheckpointLines }},
	{name: "nacho_sim_checkpoints_forced_total", help: "Periodic forward-progress checkpoints.",
		field: func(c *metrics.Counters) uint64 { return c.ForcedCkpts }},
	{name: "nacho_sim_checkpoints_adaptive_total", help: "Dirty-threshold policy checkpoints.",
		field: func(c *metrics.Counters) uint64 { return c.AdaptiveCkpts }},
	{name: "nacho_sim_nvm_reads_total", help: "Charged NVM read accesses.",
		field: func(c *metrics.Counters) uint64 { return c.NVMReads }},
	{name: "nacho_sim_nvm_writes_total", help: "Charged NVM write accesses.",
		field: func(c *metrics.Counters) uint64 { return c.NVMWrites }},
	{name: "nacho_sim_nvm_read_bytes_total", help: "Bytes read from NVM.",
		field: func(c *metrics.Counters) uint64 { return c.NVMReadBytes }},
	{name: "nacho_sim_nvm_write_bytes_total", help: "Bytes written to NVM.",
		field: func(c *metrics.Counters) uint64 { return c.NVMWriteBytes }},
	{name: "nacho_sim_accesses_total", help: "CPU data accesses by serving class.", labels: []telemetry.Label{{Name: "class", Value: "hit"}},
		field: func(c *metrics.Counters) uint64 { return c.CacheHits }},
	{name: "nacho_sim_accesses_total", help: "CPU data accesses by serving class.", labels: []telemetry.Label{{Name: "class", Value: "miss"}},
		field: func(c *metrics.Counters) uint64 { return c.CacheMisses }},
	{name: "nacho_sim_evictions_total", help: "Dirty lines written back outside checkpoints.",
		field: func(c *metrics.Counters) uint64 { return c.Evictions }},
	{name: "nacho_sim_writebacks_total", help: "Dirty lines leaving the volatile domain, by safety verdict.", labels: []telemetry.Label{{Name: "verdict", Value: "safe"}},
		field: func(c *metrics.Counters) uint64 { return c.SafeEvictions }},
	{name: "nacho_sim_writebacks_total", help: "Dirty lines leaving the volatile domain, by safety verdict.", labels: []telemetry.Label{{Name: "verdict", Value: "unsafe"}},
		field: func(c *metrics.Counters) uint64 { return c.UnsafeEvictions }},
	{name: "nacho_sim_writebacks_total", help: "Dirty lines leaving the volatile domain, by safety verdict.", labels: []telemetry.Label{{Name: "verdict", Value: "dropped-stack"}},
		field: func(c *metrics.Counters) uint64 { return c.DroppedStackLines }},
	{name: "nacho_sim_regions_total", help: "ReplayCache idempotent regions committed.",
		field: func(c *metrics.Counters) uint64 { return c.Regions }},
	{name: "nacho_sim_checkpoint_intervals_total", help: "Checkpoint commits by cycles since the previous commit.", labels: []telemetry.Label{{Name: "cycles", Value: "<1k"}},
		field: func(c *metrics.Counters) uint64 { return c.IntervalHist[0] }},
	{name: "nacho_sim_checkpoint_intervals_total", help: "Checkpoint commits by cycles since the previous commit.", labels: []telemetry.Label{{Name: "cycles", Value: "1k-10k"}},
		field: func(c *metrics.Counters) uint64 { return c.IntervalHist[1] }},
	{name: "nacho_sim_checkpoint_intervals_total", help: "Checkpoint commits by cycles since the previous commit.", labels: []telemetry.Label{{Name: "cycles", Value: "10k-100k"}},
		field: func(c *metrics.Counters) uint64 { return c.IntervalHist[2] }},
	{name: "nacho_sim_checkpoint_intervals_total", help: "Checkpoint commits by cycles since the previous commit.", labels: []telemetry.Label{{Name: "cycles", Value: ">=100k"}},
		field: func(c *metrics.Counters) uint64 { return c.IntervalHist[3] }},
	{name: "nacho_sim_power_failures_total", help: "Injected power failures.",
		field: func(c *metrics.Counters) uint64 { return c.PowerFailures }},
	{name: "nacho_sim_restore_cycles_total", help: "Cycles spent in post-reboot restore sequences.",
		field: func(c *metrics.Counters) uint64 { return c.RestoreCycles }},
}

// RegisterMetrics exposes the harness accounting in r as nacho_harness_*
// series and the simulated sum as nacho_sim_* series. The Func variants read
// the live state at scrape time, so the series track a running sweep with no
// extra work on the run path.
func RegisterMetrics(r *telemetry.Registry) {
	r.NewCounterFunc("nacho_harness_runs_started_total",
		"Simulations started.", pool.runsStarted.Load)
	r.NewCounterFunc("nacho_harness_runs_completed_total",
		"Simulations completed (with or without error).", runsCompleted)
	r.NewCounterFunc("nacho_harness_cache_hits_total",
		"Run-cache hits, including singleflight waits.", pool.cacheHits.Load)
	r.NewCounterFunc("nacho_harness_store_hits_total",
		"Runs served from the persistent run store without executing.", pool.storeHits.Load)
	r.NewCounterFunc("nacho_harness_cache_bypassed_probed_total",
		"Probed or traced runs that bypassed the run cache.", pool.cacheBypassed.Load)
	r.NewGaugeFunc("nacho_harness_workers",
		"Configured worker-pool size.", func() float64 { return float64(Workers()) })
	r.NewGaugeFunc("nacho_harness_workers_busy",
		"Workers currently executing a run.", func() float64 { return float64(pool.workersBusy.Load()) })
	r.NewGaugeFunc("nacho_harness_experiment_jobs",
		"Unique runs in the experiment currently regenerating.",
		func() float64 { pool.mu.Lock(); defer pool.mu.Unlock(); return float64(pool.jobsTotal) })
	r.NewGaugeFunc("nacho_harness_experiment_jobs_done",
		"Prewarm jobs finished in the experiment currently regenerating.",
		func() float64 { pool.mu.Lock(); defer pool.mu.Unlock(); return float64(pool.jobsDone) })
	r.NewGaugeFunc("nacho_harness_simulated_cycles_per_sec",
		"Aggregate simulation throughput since the first run.",
		func() float64 { return Status().SimulatedCyclesPerSec })
	for _, e := range []emu.Engine{emu.EngineRef, emu.EngineAOT} {
		st := engineStats[e]
		lbl := telemetry.Label{Name: "engine", Value: string(e)}
		r.NewCounterFunc("nacho_harness_engine_runs_total",
			"Simulations executed, by the engine that actually ran them.", st.runs.Load, lbl)
		r.NewCounterFunc("nacho_harness_engine_instructions_total",
			"Instructions retired, by engine.", st.instr.Load, lbl)
		r.RegisterHistogram("nacho_harness_run_wall_micros",
			"Run wall time in microseconds, by engine.", st.wall, lbl)
	}
	for _, s := range counterSeries {
		read := readSimulated(s.field)
		if s.gauge {
			r.NewGaugeFunc(s.name, s.help, func() float64 { return float64(read()) }, s.labels...)
			continue
		}
		r.NewCounterFunc(s.name, s.help, read, s.labels...)
	}
}
