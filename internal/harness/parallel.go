package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nacho/internal/emu"
	"nacho/internal/mem"
	"nacho/internal/program"
	"nacho/internal/systems"
	"nacho/internal/telemetry"
)

// The experiment matrix is embarrassingly parallel: every run is an
// independent deterministic simulation. This file fans a matrix out across a
// bounded worker pool and funnels the results through a singleflight run
// cache, so regenerating the paper's evaluation scales with the core count
// while every report stays byte-identical to the sequential path.

// workerCount is the pool size used by regenerate; 0 is replaced lazily by
// runtime.NumCPU.
var workerCount atomic.Int64

// SetWorkers sets the number of worker goroutines used to regenerate
// experiments and returns the previous setting. n <= 0 resets to
// runtime.NumCPU(). 1 disables the pool entirely (fully sequential
// execution). Reports are identical for every setting; only wall time
// changes.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	prev := workerCount.Swap(int64(n))
	if prev == 0 {
		return runtime.NumCPU()
	}
	return int(prev)
}

// Workers reports the current worker-pool size.
func Workers() int {
	if n := workerCount.Load(); n > 0 {
		return int(n)
	}
	return runtime.NumCPU()
}

// runKey is the structured cache identity of one run. It must cover every
// RunConfig field that can influence the simulation result: the previous
// fmt.Sprintf key formatted the Schedule interface with %v (lossy for
// pointer schedules) and omitted DirtyThreshold, EnergyPrediction, Cost,
// ForcedCheckpointMargin and MaxInstructions, so e.g. the dirty-threshold
// sweep could alias every threshold to one stale cached result.
type runKey struct {
	prog                   string
	kind                   systems.Kind
	cacheSize              int
	ways                   int
	schedule               string // Schedule.Key(); "none" when nil
	forcedCheckpointPeriod uint64
	forcedCheckpointMargin uint64
	maxInstructions        uint64
	maxCycles              uint64
	finalFlush             bool
	verify                 bool
	cost                   mem.CostModel
	dirtyThreshold         int
	energyPrediction       bool
	engine                 emu.Engine // resolved, never Auto
}

func keyFor(p *program.Program, kind systems.Kind, cfg RunConfig) runKey {
	sched := scheduleKey(cfg)
	return runKey{
		prog:                   p.Name,
		kind:                   kind,
		cacheSize:              cfg.CacheSize,
		ways:                   cfg.Ways,
		schedule:               sched,
		forcedCheckpointPeriod: cfg.ForcedCheckpointPeriod,
		forcedCheckpointMargin: cfg.ForcedCheckpointMargin,
		maxInstructions:        cfg.MaxInstructions,
		maxCycles:              cfg.MaxCycles,
		finalFlush:             cfg.FinalFlush,
		verify:                 cfg.Verify,
		cost:                   cfg.Cost,
		dirtyThreshold:         cfg.DirtyThreshold,
		energyPrediction:       cfg.EnergyPrediction,
		engine:                 cfg.Engine.Resolve(),
	}
}

// job is one cell of an experiment matrix.
type job struct {
	p    *program.Program
	kind systems.Kind
	cfg  RunConfig
}

// cacheEntry is a singleflight slot: the first getter runs the simulation,
// later getters block on done and read the stored result.
type cacheEntry struct {
	done chan struct{}
	res  emu.Result
	err  error
	// requested is set once a builder has asked for the slot. A prewarmed
	// slot starts unrequested, so only repeat requests count as hits and
	// the hit count is the same at every worker count.
	requested bool
}

// runCache deduplicates runs within one experiment so configurations shared
// across rows (e.g. the Volatile normalizer) execute exactly once, even when
// many workers request them concurrently. In collect mode it records the
// requested jobs instead of running them (see regenerate).
type runCache struct {
	mu      sync.Mutex
	entries map[runKey]*cacheEntry

	collect bool
	seen    map[runKey]bool
	jobs    []job

	runs      int           // simulations executed
	hits      int           // repeat requests, including singleflight waits
	storeHits int           // owner slots served from the persistent store
	bypassed  int           // probed/traced runs that skipped the cache
	runTime   time.Duration // per-run wall time summed across all workers

	// Per-regeneration wall-time distribution and per-engine run counts over
	// the simulations this cache executed (not hits or bypasses), feeding the
	// report's Timing line. The process-wide engineStats keep accumulating
	// across experiments for the metrics endpoint; these reset per report.
	wallHist   *telemetry.Histogram // microseconds, RunWallBuckets
	engineRuns map[emu.Engine]int
}

func newRunCache() *runCache {
	return &runCache{
		entries:    make(map[runKey]*cacheEntry),
		seen:       make(map[runKey]bool),
		wallHist:   telemetry.NewHistogram(RunWallBuckets),
		engineRuns: make(map[emu.Engine]int),
	}
}

func (rc *runCache) get(p *program.Program, kind systems.Kind, cfg RunConfig) (emu.Result, error) {
	if cfg.Trace != nil || cfg.Probe != nil {
		// Tracing and probing are side effects a cached result would swallow.
		rc.mu.Lock()
		rc.bypassed++
		rc.mu.Unlock()
		pool.cacheBypassed.Add(1)
		return Run(p, kind, cfg)
	}
	key := keyFor(p, kind, cfg)
	if rc.collect {
		rc.mu.Lock()
		if !rc.seen[key] {
			rc.seen[key] = true
			rc.jobs = append(rc.jobs, job{p, kind, cfg})
		}
		rc.mu.Unlock()
		return emu.Result{}, nil
	}
	rc.mu.Lock()
	if e, ok := rc.entries[key]; ok {
		// The first request for a prewarmed slot stands for the execution
		// itself (it would have run here at one worker), so it is neither
		// a hit nor a second ledger record.
		hit := e.requested
		e.requested = true
		if hit {
			rc.hits++
			pool.cacheHits.Add(1)
		}
		rc.mu.Unlock()
		<-e.done
		// A served hit still appends a ledger record — the ledger's invariant
		// is one record per run *request*, so a replayed campaign can see
		// which report cells shared a simulation.
		if hit {
			appendLedger(p.Name, kind, cfg, executedEngine(cfg), e.res, e.err, 0, outcomeCacheHit)
		}
		return e.res, e.err
	}
	e := &cacheEntry{done: make(chan struct{}), requested: true}
	rc.entries[key] = e
	rc.mu.Unlock()
	rc.execute(e, p, kind, cfg)
	return e.res, e.err
}

// fill executes one prewarm job into a fresh, unrequested slot (see
// cacheEntry.requested). The collect pass yields each key once, and the
// prewarm finishes before the assembly pass requests anything, so the slot
// cannot exist yet.
func (rc *runCache) fill(j job) {
	e := &cacheEntry{done: make(chan struct{})}
	rc.mu.Lock()
	rc.entries[keyFor(j.p, j.kind, j.cfg)] = e
	rc.mu.Unlock()
	rc.execute(e, j.p, j.kind, j.cfg)
}

// execute runs the simulation behind a slot its caller owns, publishes the
// result to waiters, and accounts it.
func (rc *runCache) execute(e *cacheEntry, p *program.Program, kind systems.Kind, cfg RunConfig) {
	start := time.Now()
	var fromStore bool
	e.res, e.err, fromStore = runStored(p, kind, cfg)
	dur := time.Since(start)
	close(e.done)

	rc.mu.Lock()
	if fromStore {
		// Served from the persistent store without executing: not a
		// simulation, so it stays out of the runs count, the wall-time
		// distribution and the per-engine accounting.
		rc.storeHits++
	} else {
		rc.runs++
		rc.runTime += dur
		rc.engineRuns[executedEngine(cfg)]++
	}
	rc.mu.Unlock()
	if !fromStore {
		rc.wallHist.Observe(uint64(dur.Microseconds()))
	}
}

// prewarm executes jobs across nWorkers goroutines. Run errors are not
// returned here: they stay in the cache and resurface — on the same run, in
// deterministic order — during the sequential assembly pass.
func (rc *runCache) prewarm(jobs []job, nWorkers int) {
	if nWorkers > len(jobs) {
		nWorkers = len(jobs)
	}
	if nWorkers < 1 {
		return
	}
	ch := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := range ch {
				workerStarted(worker, j)
				rc.fill(j)
				workerDone(worker)
			}
		}(i)
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// regenerate runs one experiment builder against a fresh run cache. With
// more than one worker configured it first invokes the builder in collect
// mode to enumerate the run matrix, fans the matrix out across the pool, and
// then replays the builder against the warm cache — so row assembly (and
// therefore the report) is always in deterministic sequential order, no
// matter in which order the workers finish. The builder must request the
// same runs on both passes; every builder in this package does, because the
// matrix depends only on the benchmark list, never on run results.
func regenerate(build func(rc *runCache) (*Report, error)) (*Report, error) {
	start := time.Now()
	nWorkers := Workers()
	rc := newRunCache()

	// One experiment regeneration is one cell span on the campaign tracer,
	// and the ambient parent for every run span emitted under it — the run
	// path attaches to the right cell with no plumbing. The title is only
	// known once a builder pass has run; SetName patches it in.
	tr := telemetry.ActiveTracer()
	cell := tr.Begin(0, telemetry.SpanCell, "", "", "")
	prevAmbient := tr.SetAmbient(cell)

	if nWorkers > 1 {
		dry := newRunCache()
		dry.collect = true
		if dryRep, err := build(dry); err == nil {
			// The dry pass already assembled the report skeleton, so the
			// experiment title and matrix size are known before any
			// simulation starts — /status can show sweep progress live.
			tr.SetName(cell, dryRep.Title)
			beginExperiment(dryRep.Title, len(dry.jobs))
			rc.prewarm(dry.jobs, nWorkers)
			defer endExperiment()
		}
		// On a dry-pass error (e.g. an unknown benchmark) nothing is
		// prewarmed; the sequential pass reports the error at the same
		// deterministic point as a single-worker run.
	}
	rep, err := build(rc)
	if err != nil {
		tr.SetAmbient(prevAmbient)
		tr.End(cell, uint64(rc.runs), uint64(rc.hits), true)
		return nil, err
	}
	tr.SetName(cell, rep.Title)
	rc.mu.Lock()
	rep.Timing = fmt.Sprintf("timing: %d runs (%d cache hits), %v run wall time summed across %d workers, %v harness wall time",
		rc.runs, rc.hits, rc.runTime.Round(time.Millisecond), nWorkers, time.Since(start).Round(time.Millisecond))
	if rc.storeHits > 0 {
		rep.Timing += fmt.Sprintf("; %d persistent-store hits", rc.storeHits)
	}
	if rc.bypassed > 0 {
		rep.Timing += fmt.Sprintf("; %d probed runs bypassed the run cache", rc.bypassed)
	}
	rep.Timing += rc.timingDetail()
	rc.mu.Unlock()
	tr.SetAmbient(prevAmbient)
	tr.End(cell, uint64(rc.runs), uint64(rc.hits), false)
	return rep, nil
}

// timingDetail renders the per-regeneration wall-time distribution (p50, p95
// and exact max from the run-cache histogram) and the per-engine run counts.
// Empty when the experiment executed no simulations. Caller holds rc.mu.
func (rc *runCache) timingDetail() string {
	if rc.wallHist.Count() == 0 {
		return ""
	}
	q := func(p float64) time.Duration {
		return (time.Duration(rc.wallHist.Quantile(p)*1e3) * time.Nanosecond).Round(time.Microsecond)
	}
	s := fmt.Sprintf("; run wall p50 %v / p95 %v / max %v",
		q(0.5), q(0.95), time.Duration(rc.wallHist.Max())*time.Microsecond)
	engines := make([]string, 0, len(rc.engineRuns))
	for e := range rc.engineRuns {
		engines = append(engines, string(e))
	}
	sort.Strings(engines)
	s += "; engine runs:"
	for i, e := range engines {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf(" %s=%d", e, rc.engineRuns[emu.Engine(e)])
	}
	return s
}
