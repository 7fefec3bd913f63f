package harness

import (
	"errors"
	"sync/atomic"

	"nacho/internal/emu"
	"nacho/internal/sim"
	"nacho/internal/store"
)

// The persistent run store: the in-process singleflight cache promoted to an
// on-disk, process- and machine-shareable tier. The integration is
// read-through/write-through at the single choke point every cacheable run
// funnels through (runImageStored): a verified store entry short-circuits the
// simulation entirely, and a miss executes and writes its entry before the
// run returns, so the entry is on disk even when the process then exits
// without closing the store. Probed and traced runs bypass the store on BOTH
// read and write — the caller wants their instrumentation side effects, which
// a stored record cannot replay, so an observed run must never be served a
// stored record, nor record one for an unobserved request (see
// TestProbedRunsBypassStore).

// activeStore is the installed persistent store, nil when disabled.
var activeStore atomic.Pointer[store.Store]

// SetStore installs (or, with nil, removes) the persistent run store every
// subsequent cacheable run reads and writes through, returning the previous
// one. The caller keeps ownership: closing the store remains its job.
func SetStore(s *store.Store) *store.Store {
	prev := activeStore.Swap(s)
	return prev
}

// ActiveStore returns the installed persistent run store, or nil.
func ActiveStore() *store.Store { return activeStore.Load() }

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

// runImageStored is the store-aware run path: the request's execution plus
// a persistent-store read-through and write-through, reporting whether the
// result was served from the store without executing. Every cacheable caller
// — the public Run and RunImage, and the run cache's owner path — funnels
// through here; RunImageSys stays store-free because its callers read
// post-run memory state a stored record cannot reconstruct. Nobody here
// reads the run's system, so it is released as soon as the run returns.
func runImageStored(r *request) (emu.Result, error, bool) {
	s := ActiveStore()
	if r.cfg.observed() {
		s = nil // an observed run bypasses the store both ways
	}
	if s != nil {
		if e, ok := s.Get(*r.identity()); ok {
			res, err := entryResult(e)
			pool.storeHits.Add(1)
			appendLedger(r, servedEngine(r.cfg), res, err, 0, outcomeStoreHit)
			return res, err, true
		}
	}
	res, sys, err := r.execute()
	if sys != nil {
		sys.Release()
	}
	if s != nil {
		// A failed write costs only a re-execution on the next request, and
		// Put counts it for Stats and keeps it for Close, so the result
		// stands.
		_ = s.Put(entryFor(*r.identity(), res, err))
	}
	return res, err, false
}
