package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nacho/internal/emu"
	"nacho/internal/program"
	"nacho/internal/store"
	"nacho/internal/systems"
	"nacho/internal/telemetry"
)

// The experiment matrix is embarrassingly parallel: every run is an
// independent deterministic simulation. This file fans a matrix out across a
// bounded worker pool and funnels the results through the process-wide
// singleflight run cache, so regenerating the paper's evaluation scales with
// the core count, executes each run identity once per process, and every
// report stays byte-identical to the sequential path.

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

// cacheEntry is a singleflight slot: the first getter runs the simulation,
// later getters block on done and read the stored result.
type cacheEntry struct {
	done chan struct{}
	res  emu.Result
	err  error
	// owner is the regeneration whose tally accounts the slot's execution.
	owner *tally
	// requested is set once a builder has asked for the slot. A prewarmed
	// slot starts unrequested, so only repeat requests count as hits and
	// the hit count is the same at every worker count.
	requested bool
}

// cache is the process's singleflight run cache, keyed by run identity.
// Every regeneration reads and fills it, so a run one experiment executed
// serves every later experiment that requests the same identity — Figures 5
// and 8 share their volatile baselines, and Figures 6 and 7 are subsets of
// Figure 5's matrix — even when many workers request it concurrently.
var cache = struct {
	mu      sync.Mutex
	entries map[store.Key]*cacheEntry
}{entries: make(map[store.Key]*cacheEntry)}

// ResetRunCache empties the process-wide run cache, so later regenerations
// execute (or read from the store) every run they request. It is for tests
// and benchmarks that must observe real execution; never call it while an
// experiment regenerates.
func ResetRunCache() {
	cache.mu.Lock()
	cache.entries = make(map[store.Key]*cacheEntry)
	cache.mu.Unlock()
}

// tally is one regeneration's handle on the run cache and its own figures,
// which its Timing line reports. In collect mode it records the requests the
// cache does not yet hold instead of running them (see regenerate).
type tally struct {
	collect bool
	seen    map[store.Key]bool
	jobs    []*request

	mu        sync.Mutex
	runs      int           // simulations executed
	hits      int           // requests served from the cache: repeats, singleflight waits, earlier runs
	earlier   int           // hits served by runs of earlier regenerations
	storeHits int           // owner slots served from the persistent store
	bypassed  int           // probed/traced runs that skipped the cache
	runTime   time.Duration // per-run wall time summed across all workers

	// Wall-time distribution and per-engine run counts over the simulations
	// this regeneration executed (not hits or bypasses). The process-wide
	// engineStats keep accumulating across experiments for the metrics
	// endpoint; these are per report.
	wallHist   *telemetry.Histogram // microseconds, RunWallBuckets
	engineRuns map[emu.Engine]int
}

func newTally() *tally {
	return &tally{
		wallHist:   telemetry.NewHistogram(RunWallBuckets),
		engineRuns: make(map[emu.Engine]int),
	}
}

// get serves one run request through the process-wide cache.
func (tl *tally) get(p *program.Program, kind systems.Kind, cfg RunConfig) (emu.Result, error) {
	if cfg.observed() {
		tl.mu.Lock()
		tl.bypassed++
		tl.mu.Unlock()
		pool.cacheBypassed.Add(1)
		return Run(p, kind, cfg)
	}
	img, err := p.Build()
	if err != nil {
		return emu.Result{}, err
	}
	r := &request{img: img, kind: kind, cfg: cfg, checkGolden: true}
	key := *r.identity()
	cache.mu.Lock()
	e, held := cache.entries[key]
	if tl.collect {
		cache.mu.Unlock()
		if !held && !tl.seen[key] {
			tl.seen[key] = true
			tl.jobs = append(tl.jobs, r)
		}
		return emu.Result{}, nil
	}
	if held {
		// The first request for a slot this regeneration prewarmed stands
		// for the execution itself (it would have run here at one worker),
		// so it is neither a hit nor a second ledger record. A slot an
		// earlier regeneration filled is always a hit.
		fromEarlier := e.owner != tl
		hit := e.requested || fromEarlier
		e.requested = true
		cache.mu.Unlock()
		if hit {
			tl.mu.Lock()
			tl.hits++
			if fromEarlier {
				tl.earlier++
			}
			tl.mu.Unlock()
			pool.cacheHits.Add(1)
		}
		<-e.done
		// A served hit still appends a ledger record — the ledger's invariant
		// is one record per run *request*, so a replayed campaign can see
		// which report cells shared a simulation.
		if hit {
			appendLedger(r, executedEngine(cfg), e.res, e.err, 0, outcomeCacheHit)
		}
		return e.res, e.err
	}
	e = &cacheEntry{done: make(chan struct{}), owner: tl, requested: true}
	cache.entries[key] = e
	cache.mu.Unlock()
	tl.execute(e, r)
	return e.res, e.err
}

// fill executes one prewarm job into a fresh, unrequested slot (see
// cacheEntry.requested). The collect pass yields only identities the cache
// did not hold, each once, and the prewarm finishes before the assembly pass
// requests anything; a slot that a concurrent regeneration has filled since
// is left to it.
func (tl *tally) fill(r *request) {
	cache.mu.Lock()
	if _, held := cache.entries[*r.key]; held {
		cache.mu.Unlock()
		return
	}
	e := &cacheEntry{done: make(chan struct{}), owner: tl}
	cache.entries[*r.key] = e
	cache.mu.Unlock()
	tl.execute(e, r)
}

// execute runs the simulation behind a slot its caller owns, publishes the
// result to waiters, and accounts it.
func (tl *tally) execute(e *cacheEntry, r *request) {
	start := time.Now()
	var fromStore bool
	e.res, e.err, fromStore = runImageStored(r)
	dur := time.Since(start)
	close(e.done)

	tl.mu.Lock()
	if fromStore {
		// Served from the persistent store without executing: not a
		// simulation, so it stays out of the runs count, the wall-time
		// distribution and the per-engine accounting.
		tl.storeHits++
	} else {
		tl.runs++
		tl.runTime += dur
		tl.engineRuns[executedEngine(r.cfg)]++
	}
	tl.mu.Unlock()
	if !fromStore {
		tl.wallHist.Observe(uint64(dur.Microseconds()))
	}
}

// prewarm executes jobs across nWorkers goroutines. Run errors are not
// returned here: they stay in the cache and resurface — on the same run, in
// deterministic order — during the sequential assembly pass.
func (tl *tally) prewarm(jobs []*request, nWorkers int) {
	if nWorkers > len(jobs) {
		nWorkers = len(jobs)
	}
	if nWorkers < 1 {
		return
	}
	ch := make(chan *request)
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for r := range ch {
				workerStarted(worker, r)
				tl.fill(r)
				workerDone(worker)
			}
		}(i)
	}
	for _, r := range jobs {
		ch <- r
	}
	close(ch)
	wg.Wait()
}

// regenerate runs one experiment builder against the process-wide run cache
// with a fresh tally. With more than one worker configured it first invokes
// the builder in collect mode to enumerate the runs the cache does not yet
// hold, fans them out across the pool, and then replays the builder against
// the warm cache — so row assembly (and therefore the report) is always in
// deterministic sequential order, no matter in which order the workers
// finish. The builder must request the same runs on both passes; every
// builder in this package does, because the matrix depends only on the
// benchmark list, never on run results.
func regenerate(build func(tl *tally) (*Report, error)) (*Report, error) {
	start := time.Now()
	nWorkers := Workers()
	tl := newTally()

	// One experiment regeneration is one cell span on the campaign tracer,
	// and the ambient parent for every run span emitted under it — the run
	// path attaches to the right cell with no plumbing. The title is only
	// known once a builder pass has run; SetName patches it in.
	tr := telemetry.ActiveTracer()
	cell := tr.Begin(0, telemetry.SpanCell, "", "", "")
	prevAmbient := tr.SetAmbient(cell)

	if nWorkers > 1 {
		dry := &tally{collect: true, seen: make(map[store.Key]bool)}
		if dryRep, err := build(dry); err == nil {
			// The dry pass already assembled the report skeleton, so the
			// experiment title and the number of new runs are known before
			// any simulation starts — /status can show sweep progress live.
			tr.SetName(cell, dryRep.Title)
			beginExperiment(dryRep.Title, len(dry.jobs))
			tl.prewarm(dry.jobs, nWorkers)
			defer endExperiment()
		}
		// On a dry-pass error (e.g. an unknown benchmark) nothing is
		// prewarmed; the sequential pass reports the error at the same
		// deterministic point as a single-worker run.
	}
	rep, err := build(tl)
	if err != nil {
		tr.SetAmbient(prevAmbient)
		tr.End(cell, uint64(tl.runs), uint64(tl.hits), true)
		return nil, err
	}
	tr.SetName(cell, rep.Title)
	tl.mu.Lock()
	rep.Timing = fmt.Sprintf("timing: %d runs (%d cache hits), %v run wall time summed across %d workers, %v harness wall time",
		tl.runs, tl.hits, tl.runTime.Round(time.Millisecond), nWorkers, time.Since(start).Round(time.Millisecond))
	if tl.earlier > 0 {
		rep.Timing += fmt.Sprintf("; %d cache hits served by runs of earlier experiments", tl.earlier)
	}
	if tl.storeHits > 0 {
		rep.Timing += fmt.Sprintf("; %d persistent-store hits", tl.storeHits)
	}
	if tl.bypassed > 0 {
		rep.Timing += fmt.Sprintf("; %d probed runs bypassed the run cache", tl.bypassed)
	}
	rep.Timing += tl.timingDetail()
	tl.mu.Unlock()
	tr.SetAmbient(prevAmbient)
	tr.End(cell, uint64(tl.runs), uint64(tl.hits), false)
	return rep, nil
}

// timingDetail renders the regeneration's wall-time distribution (p50, p95
// and exact max from its histogram) and its per-engine run counts. Empty
// when the experiment executed no simulations. Caller holds tl.mu.
func (tl *tally) timingDetail() string {
	if tl.wallHist.Count() == 0 {
		return ""
	}
	q := func(p float64) time.Duration {
		return (time.Duration(tl.wallHist.Quantile(p)*1e3) * time.Nanosecond).Round(time.Microsecond)
	}
	s := fmt.Sprintf("; run wall p50 %v / p95 %v / max %v",
		q(0.5), q(0.95), time.Duration(tl.wallHist.Max())*time.Microsecond)
	engines := make([]string, 0, len(tl.engineRuns))
	for e := range tl.engineRuns {
		engines = append(engines, string(e))
	}
	sort.Strings(engines)
	s += "; engine runs:"
	for i, e := range engines {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf(" %s=%d", e, tl.engineRuns[emu.Engine(e)])
	}
	return s
}
