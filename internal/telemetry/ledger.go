package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// The run ledger: one append-only JSON line per run, durable across the
// process. Where the metrics registry answers "how is the campaign doing
// right now" and the span tracer "where did the time go", the ledger answers
// "what exactly ran" — a replay-loadable record of every simulation's
// identity, outcome, counters and timing. The record's key is the digest of
// the run's full identity (the harness's store.Key, which also keys its run
// cache and names the run's store object); the program, system, cache, ways
// and schedule columns are a readable subset of that identity.
//
// Append renders into a buffer retained across calls and takes one lock, so
// the steady-state hot path performs no allocation (pinned by
// TestLedgerAppendAllocFree) and is safe from every harness worker at once.
// Serialization is canonical — fixed field order, fixed formatting, empty
// optionals omitted — so reload + re-append reproduces the input bytes
// (the round-trip property the ledger tests pin).

// LedgerVersion is the schema version stamped on every record.
const LedgerVersion = 2

// Record is one run in the ledger. Key, Program, System, Cache, Ways and
// Schedule come from the run's identity; Engine is the engine that executed;
// the counter fields mirror the report inputs (metrics.Counters).
type Record struct {
	V        int    `json:"v"`   // schema version (LedgerVersion)
	Key      string `json:"key"` // hex digest of the run's identity, its store object's name
	Program  string `json:"program"`
	System   string `json:"system"`
	Engine   string `json:"engine"` // engine the run executed on (emu.Executed)
	Cache    int    `json:"cache"`  // cache size in bytes
	Ways     int    `json:"ways"`
	Schedule string `json:"schedule"` // power.Schedule.Key(); "none" when always-on

	// Outcome is "ok", "error", "cache-hit" (served from the in-process run
	// cache without executing; counters are the cached result's) or
	// "store-hit" (served from the persistent run store).
	Outcome string `json:"outcome"`
	// Error is the run error string (only when Outcome is "error").
	Error string `json:"error,omitempty"`
	// Bypass marks a probed/traced run that skipped the run cache.
	Bypass bool `json:"bypass,omitempty"`

	Cycles        uint64 `json:"cycles"`
	Instructions  uint64 `json:"instructions"`
	Checkpoints   uint64 `json:"checkpoints"`
	NVMReadBytes  uint64 `json:"nvm_read_bytes"`
	NVMWriteBytes uint64 `json:"nvm_write_bytes"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	PowerFailures uint64 `json:"power_failures"`

	// WallMicros is the run's wall-clock execution time (0 for cache hits).
	WallMicros int64 `json:"wall_micros"`
}

// Ledger appends records as JSON lines through a buffered writer.
type Ledger struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte // line scratch, retained across appends
	n   uint64 // records appended
	err error  // first write error; later appends are dropped
}

// NewLedger starts a ledger writing to w.
func NewLedger(w io.Writer) *Ledger {
	return &Ledger{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 512)}
}

// Append writes one record as a single JSON line. Safe for concurrent use;
// write errors are sticky and surfaced by Flush.
func (l *Ledger) Append(rec *Record) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.err == nil {
		l.buf = appendRecord(l.buf[:0], rec)
		if _, err := l.w.Write(l.buf); err != nil {
			l.err = err
		}
		l.n++
	}
	l.mu.Unlock()
}

// Len reports how many records have been appended.
func (l *Ledger) Len() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Flush drains the buffered writer and returns the first error encountered
// anywhere in the stream.
func (l *Ledger) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); l.err == nil {
		l.err = err
	}
	return l.err
}

// appendRecord renders rec canonically into buf: fixed field order matching
// the struct tags, strconv number formatting, optionals omitted at their zero
// value. ReadLedger + appendRecord round-trips byte-identically.
func appendRecord(buf []byte, rec *Record) []byte {
	buf = append(buf, `{"v":`...)
	buf = strconv.AppendInt(buf, int64(rec.V), 10)
	buf = appendField(buf, "key", rec.Key)
	buf = appendField(buf, "program", rec.Program)
	buf = appendField(buf, "system", rec.System)
	buf = appendField(buf, "engine", rec.Engine)
	buf = append(buf, `,"cache":`...)
	buf = strconv.AppendInt(buf, int64(rec.Cache), 10)
	buf = append(buf, `,"ways":`...)
	buf = strconv.AppendInt(buf, int64(rec.Ways), 10)
	buf = appendField(buf, "schedule", rec.Schedule)
	buf = appendField(buf, "outcome", rec.Outcome)
	if rec.Error != "" {
		buf = appendField(buf, "error", rec.Error)
	}
	if rec.Bypass {
		buf = append(buf, `,"bypass":true`...)
	}
	buf = appendUintField(buf, "cycles", rec.Cycles)
	buf = appendUintField(buf, "instructions", rec.Instructions)
	buf = appendUintField(buf, "checkpoints", rec.Checkpoints)
	buf = appendUintField(buf, "nvm_read_bytes", rec.NVMReadBytes)
	buf = appendUintField(buf, "nvm_write_bytes", rec.NVMWriteBytes)
	buf = appendUintField(buf, "cache_hits", rec.CacheHits)
	buf = appendUintField(buf, "cache_misses", rec.CacheMisses)
	buf = appendUintField(buf, "power_failures", rec.PowerFailures)
	buf = append(buf, `,"wall_micros":`...)
	buf = strconv.AppendInt(buf, rec.WallMicros, 10)
	buf = append(buf, "}\n"...)
	return buf
}

func appendUintField(buf []byte, name string, v uint64) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return strconv.AppendUint(buf, v, 10)
}

func appendField(buf []byte, name, v string) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return appendJSONString(buf, v)
}

// appendJSONString appends v as a JSON string, escaping the characters the
// JSON grammar requires (quotes, backslash, control bytes). Everything the
// ledger stores (program names, system kinds, schedule keys, Go error
// strings) passes through unchanged on the fast path.
func appendJSONString(buf []byte, v string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c == '\n':
			buf = append(buf, '\\', 'n')
		case c == '\t':
			buf = append(buf, '\\', 't')
		case c == '\r':
			buf = append(buf, '\\', 'r')
		case c < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

func hexDigit(b byte) byte {
	if b < 10 {
		return '0' + b
	}
	return 'a' + b - 10
}

// ReadLedger loads every record from a ledger stream, in order, returning the
// records and the number of trailing lines skipped. Blank lines are ignored.
// A malformed *final* line is the signature of a crash mid-append (the process
// was killed between writing part of a record and its newline), so it is
// skipped and counted rather than failing the whole load; a malformed line
// with valid records after it cannot be crash truncation and still fails with
// its line number.
func ReadLedger(r io.Reader) ([]Record, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var out []Record
	line := 0
	var pendingErr error // parse failure on the most recent non-blank line
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if pendingErr != nil {
			// The malformed line was not the last one: real corruption.
			return out, 0, pendingErr
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			pendingErr = fmt.Errorf("telemetry: ledger line %d: %w", line, err)
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, 0, fmt.Errorf("telemetry: ledger read: %w", err)
	}
	skipped := 0
	if pendingErr != nil {
		skipped = 1
	}
	return out, skipped, nil
}
