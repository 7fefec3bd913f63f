package harness

import (
	"errors"
	"sync"
	"sync/atomic"

	"nacho/internal/emu"
	"nacho/internal/mem"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/store"
	"nacho/internal/systems"
)

// The persistent run store: the in-process singleflight cache promoted to an
// on-disk, process- and machine-shareable tier. The integration is
// read-through/write-behind at the single choke point every cacheable run
// funnels through (runImageStored): a verified store entry short-circuits the
// simulation entirely, a miss executes and queues the result for write-behind
// persistence. Probed and traced runs bypass the store on BOTH read and write
// — their results are perturbed by instrumentation side effects (and forced
// onto the reference engine), so a probe-perturbed record must never be
// served to, or recorded for, an unprobed request (see
// TestProbedRunsBypassStore).

// activeStore is the installed persistent store, nil when disabled.
var activeStore atomic.Pointer[store.Store]

// SetStore installs (or, with nil, removes) the persistent run store every
// subsequent cacheable run reads and writes through, returning the previous
// one. The caller keeps ownership: closing or flushing the store remains its
// job.
func SetStore(s *store.Store) *store.Store {
	prev := activeStore.Swap(s)
	return prev
}

// ActiveStore returns the installed persistent run store, or nil.
func ActiveStore() *store.Store { return activeStore.Load() }

// imageHashes memoizes the content hash per built image. Images are immutable
// and cached per benchmark name (see program.Build), so the pointer is a
// stable identity and each image is hashed once per process.
var imageHashes sync.Map // *program.Image -> string

// imageHash returns the content hash of an assembled image.
func imageHash(img *program.Image) string {
	if h, ok := imageHashes.Load(img); ok {
		return h.(string)
	}
	segs := make([]store.Segment, len(img.Segments))
	for i, s := range img.Segments {
		segs[i] = store.Segment{Addr: s.Addr, Data: s.Data}
	}
	h := store.HashImage(img.Entry, img.Expected, segs)
	imageHashes.Store(img, h)
	return h
}

// storeBypass reports whether a run must bypass the persistent store: tracing
// and probing are side effects a stored result would swallow, and their
// presence changes what actually executes.
func storeBypass(cfg RunConfig) bool { return cfg.Trace != nil || cfg.Probe != nil }

// storeKeyFor renders the complete persistent identity of one run. It is the
// runKey widened with everything a shared, cross-process store additionally
// needs: the image content hash (two builds of the repo with different
// benchmark source must not alias) and the checkGolden flag (it changes the
// error outcome). cfg.Cost must already be defaulted.
func storeKeyFor(img *program.Image, kind systems.Kind, cfg RunConfig, checkGolden bool) store.Key {
	return store.Key{
		Program:                img.Program.Name,
		ImageHash:              imageHash(img),
		System:                 string(kind),
		Engine:                 string(cfg.Engine.Resolve()),
		CacheSize:              cfg.CacheSize,
		Ways:                   cfg.Ways,
		Schedule:               scheduleKey(cfg),
		ForcedCheckpointPeriod: cfg.ForcedCheckpointPeriod,
		ForcedCheckpointMargin: cfg.ForcedCheckpointMargin,
		MaxInstructions:        cfg.MaxInstructions,
		MaxCycles:              cfg.MaxCycles,
		FinalFlush:             cfg.FinalFlush,
		Verify:                 cfg.Verify,
		CheckGolden:            checkGolden,
		ClockHz:                cfg.Cost.ClockHz,
		HitCycles:              cfg.Cost.HitCycles,
		NVMCycles:              cfg.Cost.NVMCycles,
		DirtyThreshold:         cfg.DirtyThreshold,
		EnergyPrediction:       cfg.EnergyPrediction,
	}
}

// entryFor renders an executed run into its store entry.
func entryFor(key store.Key, res emu.Result, err error) *store.Entry {
	e := &store.Entry{
		Key:        key,
		Outcome:    store.OutcomeOK,
		ExitCode:   res.ExitCode,
		ResultWord: res.Result,
		Results:    res.Results,
		Output:     res.Output,
		Regs:       res.FinalRegs.Words(),
		Counters:   res.Counters,
	}
	if err != nil {
		e.Outcome = store.OutcomeError
		e.Error = err.Error()
	}
	return e
}

// entryResult reconstructs a run's outcome from a verified store entry.
func entryResult(e *store.Entry) (emu.Result, error) {
	res := emu.Result{
		ExitCode:  e.ExitCode,
		Result:    e.ResultWord,
		Results:   e.Results,
		Output:    e.Output,
		Counters:  e.Counters,
		FinalRegs: sim.SnapshotFromWords(e.Regs),
	}
	var err error
	if e.Outcome == store.OutcomeError {
		err = errors.New(e.Error)
	}
	return res, err
}

// runImageStored is the store-aware run path: RunImage plus a persistent-store
// read-through and write-behind, reporting whether the result was served from
// the store without executing. Every cacheable caller — the public Run and
// RunImage, and the run-cache owner path — funnels through here;
// RunImageSys stays store-free because its callers read post-run memory
// state a stored record cannot reconstruct.
func runImageStored(img *program.Image, kind systems.Kind, cfg RunConfig, checkGolden bool) (emu.Result, error, bool) {
	s := ActiveStore()
	if s == nil || storeBypass(cfg) {
		res, _, err := RunImageSys(img, kind, cfg, checkGolden)
		return res, err, false
	}
	if cfg.Cost == (mem.CostModel{}) {
		cfg.Cost = mem.DefaultCostModel()
	}
	key := storeKeyFor(img, kind, cfg, checkGolden)
	if e, ok := s.Get(key); ok {
		res, err := entryResult(e)
		pool.storeHits.Add(1)
		appendLedger(img.Program.Name, kind, cfg, executedEngine(cfg), res, err, 0, outcomeStoreHit)
		return res, err, true
	}
	res, _, err := RunImageSys(img, kind, cfg, checkGolden)
	s.PutAsync(entryFor(key, res, err))
	return res, err, false
}

// runStored is Run with the served-from-store bit exposed (the run cache's
// accounting needs it).
func runStored(p *program.Program, kind systems.Kind, cfg RunConfig) (emu.Result, error, bool) {
	img, err := p.Build()
	if err != nil {
		return emu.Result{}, err, false
	}
	return runImageStored(img, kind, cfg, true)
}
