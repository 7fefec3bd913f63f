package nacho

import (
	"fmt"

	"nacho/internal/harness"
	"nacho/internal/store"
)

// RunStore is a persistent content-addressed store of run results. While one
// is open, every deterministic simulation in the process — experiment
// regeneration, Run, RunSource — is read through it and written through it:
// each executed run's entry is on disk when the run returns, and results
// survive restarts, so a second regeneration of the same experiment executes
// zero simulations and renders a byte-identical report. Traced or probed
// runs bypass the store entirely (their instrumentation must observe a real
// execution).
//
// The directory is shared safely between processes (writes are atomic
// renames), so concurrent invocations can read and fill one store.
type RunStore struct {
	s    *store.Store
	prev *store.Store
}

// RunStoreStats is a snapshot of one store's accounting.
type RunStoreStats struct {
	// Hits and Misses count read-through lookups.
	Hits, Misses uint64
	// Puts counts entries written.
	Puts uint64
	// CorruptEvicted counts checksum-failed entries deleted on read; the
	// affected runs re-executed transparently.
	CorruptEvicted uint64
	// WriteErrors counts failed writes; each affected run re-executes on
	// its next request.
	WriteErrors uint64
}

// OpenRunStore opens (creating if needed) the store rooted at dir and
// installs it as the process's active run store. Close it when done; stores
// do not nest — open at most one at a time.
func OpenRunStore(dir string) (*RunStore, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("nacho: %w", err)
	}
	return &RunStore{s: s, prev: harness.SetStore(s)}, nil
}

// Dir returns the store's root directory.
func (rs *RunStore) Dir() string { return rs.s.Dir() }

// Stats snapshots the store's accounting.
func (rs *RunStore) Stats() RunStoreStats {
	st := rs.s.Stats()
	return RunStoreStats{Hits: st.Hits, Misses: st.Misses, Puts: st.Puts,
		CorruptEvicted: st.CorruptEvicted, WriteErrors: st.WriteErrors}
}

// Count walks the store and returns the number of persisted entries.
func (rs *RunStore) Count() (int, error) { return rs.s.Count() }

// Close uninstalls the store and returns the first write error encountered
// over its lifetime, if any. Every write finished when its run returned, so
// there is nothing left to flush.
func (rs *RunStore) Close() error {
	harness.SetStore(rs.prev)
	if err := rs.s.Close(); err != nil {
		return fmt.Errorf("nacho: %w", err)
	}
	return nil
}
