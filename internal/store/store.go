package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"nacho/internal/metrics"
	"nacho/internal/telemetry"
)

// EntryVersion is the schema version stamped on every on-disk record.
const EntryVersion = 1

// Outcome values for an Entry. Simulations are deterministic, so an error
// outcome is as cacheable as a success: the same identity re-executed would
// fail the same way.
const (
	OutcomeOK    = "ok"
	OutcomeError = "error"
)

// Entry is one stored run result: the full key (for diagnostics and
// integrity checking — the digest is recomputable from it) plus everything
// needed to reconstruct the run's outcome without re-executing it. The shape
// extends the run ledger's record (identity + counters) with the result
// payload the in-process run cache holds: exit code, result words, program
// output, final registers, and the run error.
type Entry struct {
	V       int    `json:"v"`
	Key     Key    `json:"key"`
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`

	ExitCode   uint32   `json:"exit_code"`
	ResultWord uint32   `json:"result_word"`
	Results    []uint32 `json:"results,omitempty"`
	Output     []byte   `json:"output,omitempty"`
	// Regs is the final architectural register file: x1..x31 then the PC
	// (sim.Snapshot in word order).
	Regs [32]uint32 `json:"regs"`

	Counters metrics.Counters `json:"counters"`
}

// Stats is a point-in-time snapshot of a store's hit/miss/write accounting.
type Stats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Puts           uint64 `json:"puts"`
	CorruptEvicted uint64 `json:"corrupt_evicted"`
	WriteErrors    uint64 `json:"write_errors"`
}

// Store is an on-disk content-addressed run store. Entries live under
// dir/objects/<d0d1>/<digest>, written with an atomic create-temp-then-rename
// protocol and read back through an end-of-file checksum, so a crashed or
// concurrent writer can never make a reader observe a torn entry: a partial
// or bit-flipped file fails its checksum, is evicted, and reads as a miss.
// Multiple processes may share one directory; identical digests map to
// identical bytes, so concurrent writers are idempotent.
type Store struct {
	dir string

	hits           atomic.Uint64
	misses         atomic.Uint64
	puts           atomic.Uint64
	corruptEvicted atomic.Uint64
	writeErrors    atomic.Uint64

	errMu    sync.Mutex
	writeErr error // first write error (sticky), returned by Close
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o777); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's accounting.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		CorruptEvicted: s.corruptEvicted.Load(),
		WriteErrors:    s.writeErrors.Load(),
	}
}

// objectPath maps a digest to its entry file, fanned out over 256
// subdirectories so one directory never collects the whole matrix.
func (s *Store) objectPath(digest string) string {
	fan := "xx"
	if len(digest) >= 2 {
		fan = digest[:2]
	}
	return filepath.Join(s.dir, "objects", fan, digest)
}

// checksumSuffix renders the trailer line guarding a payload.
func checksumSuffix(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len("\nsha256:")+hex.EncodedLen(len(sum))+1)
	out = append(out, "\nsha256:"...)
	out = append(out, hex.EncodeToString(sum[:])...)
	return append(out, '\n')
}

// Get looks a key up, returning (entry, true) on a verified hit. Corrupt or
// torn entries — checksum mismatch, unparsable payload, digest/key
// disagreement — are evicted from disk and reported as a miss, so the caller
// transparently re-executes and re-stores them.
func (s *Store) Get(k Key) (*Entry, bool) {
	digest := k.Digest()
	path := s.objectPath(digest)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	entry, ok := decodeEntry(raw, digest)
	if !ok {
		// Bit flips, truncation, or a foreign file: evict so the slot heals
		// on the next write, and account the event.
		os.Remove(path)
		s.corruptEvicted.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return entry, true
}

// decodeEntry verifies and parses one on-disk entry image.
func decodeEntry(raw []byte, digest string) (*Entry, bool) {
	// The file is payload + "\nsha256:<hex>\n"; find the trailer.
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		return nil, false
	}
	idx := bytes.LastIndex(raw[:len(raw)-1], []byte("\nsha256:"))
	if idx < 0 {
		return nil, false
	}
	payload := raw[:idx]
	if !bytes.Equal(raw[idx:], checksumSuffix(payload)) {
		return nil, false
	}
	var entry Entry
	if err := json.Unmarshal(payload, &entry); err != nil {
		return nil, false
	}
	if entry.V != EntryVersion || entry.Key.Digest() != digest {
		return nil, false
	}
	return &entry, true
}

// Put writes an entry on the caller's goroutine: temp file in the final
// directory, then an atomic rename, so the entry is on disk when Put returns
// and readers either see the complete checksummed file or nothing. A failed
// write is counted in Stats.WriteErrors, and the first one is kept for Close.
func (s *Store) Put(e *Entry) error {
	e.V = EntryVersion
	err := s.put(e.Key.Digest(), e)
	if err != nil {
		s.writeErrors.Add(1)
		s.errMu.Lock()
		if s.writeErr == nil {
			s.writeErr = err
		}
		s.errMu.Unlock()
	}
	return err
}

func (s *Store) put(digest string, e *Entry) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", digest, err)
	}
	path := s.objectPath(digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	_, werr := tmp.Write(append(payload, checksumSuffix(payload)...))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("store: put %s: %w", digest, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	s.puts.Add(1)
	return nil
}

// Close returns the first write error over the store's lifetime. The store
// holds no open resources, so it stays readable and writable after Close.
func (s *Store) Close() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.writeErr
}

// Count walks the store and returns the number of entries on disk,
// regardless of validity. It is a maintenance helper (tests, fsck-style
// tooling), not a hot path.
func (s *Store) Count() (int, error) {
	n := 0
	err := filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && !strings.HasPrefix(d.Name(), ".put-") {
			n++
		}
		return nil
	})
	return n, err
}

// RegisterMetrics exposes the store's accounting in r as nacho_store_*
// series.
func (s *Store) RegisterMetrics(r *telemetry.Registry) {
	r.NewCounterFunc("nacho_store_hits_total",
		"Persistent run-store hits (verified entries served).", s.hits.Load)
	r.NewCounterFunc("nacho_store_misses_total",
		"Persistent run-store misses.", s.misses.Load)
	r.NewCounterFunc("nacho_store_puts_total",
		"Entries written to the persistent run store.", s.puts.Load)
	r.NewCounterFunc("nacho_store_corrupt_evicted_total",
		"Corrupt or torn entries detected by checksum and evicted.", s.corruptEvicted.Load)
	r.NewCounterFunc("nacho_store_write_errors_total",
		"Failed run-store writes (results recomputed on the next miss).", s.writeErrors.Load)
}
