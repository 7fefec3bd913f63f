package telemetry

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{
			V: LedgerVersion, Key: "5f0c2a7e9b3d41c6a8e2f7d0b9c4a3e1f6d8b2c7a0e9f4d3c1b8a7e6f5d4c3b2",
			Program: "crc32", System: "wb", Engine: "aot",
			Cache: 1024, Ways: 4, Schedule: "none", Outcome: "ok",
			Cycles: 123456, Instructions: 10000, Checkpoints: 7,
			NVMReadBytes: 4096, NVMWriteBytes: 2048,
			CacheHits: 900, CacheMisses: 100, PowerFailures: 0,
			WallMicros: 1534,
		},
		{
			V: LedgerVersion, Key: "0e1d2c3b4a5968778695a4b3c2d1e0f00f1e2d3c4b5a69788796a5b4c3d2e1f0",
			Program: "dijkstra", System: "jit", Engine: "ref",
			Cache: 2048, Ways: 8, Schedule: "fixed:5ms", Outcome: "error",
			Error: "exit code 3\twith \"tabs\" and\nnewline", Bypass: true,
			Cycles: 99, WallMicros: 12,
		},
		{
			V: LedgerVersion, Key: "5f0c2a7e9b3d41c6a8e2f7d0b9c4a3e1f6d8b2c7a0e9f4d3c1b8a7e6f5d4c3b2",
			Program: "crc32", System: "wb", Engine: "aot",
			Cache: 1024, Ways: 4, Schedule: "none", Outcome: "cache-hit",
			Cycles: 123456, Instructions: 10000, Checkpoints: 7,
			NVMReadBytes: 4096, NVMWriteBytes: 2048,
			CacheHits: 900, CacheMisses: 100,
		},
	}
}

// Write → reload → re-serialize must be byte-stable: the canonical renderer is
// what makes the ledger diffable and content-addressable.
func TestLedgerRoundTripByteStable(t *testing.T) {
	var first bytes.Buffer
	l := NewLedger(&first)
	recs := sampleRecords()
	for i := range recs {
		l.Append(&recs[i])
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Len(); got != uint64(len(recs)) {
		t.Fatalf("Len = %d, want %d", got, len(recs))
	}

	loaded, skipped, err := ReadLedger(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("clean ledger reported %d skipped lines", skipped)
	}
	if len(loaded) != len(recs) {
		t.Fatalf("reloaded %d records, want %d", len(loaded), len(recs))
	}
	for i := range recs {
		if loaded[i] != recs[i] {
			t.Errorf("record %d: reloaded %+v, want %+v", i, loaded[i], recs[i])
		}
	}

	var second bytes.Buffer
	l2 := NewLedger(&second)
	for i := range loaded {
		l2.Append(&loaded[i])
	}
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-stable:\nfirst:  %q\nsecond: %q", first.String(), second.String())
	}
}

// The append hot path runs once per harness run; it must not allocate in
// steady state (the line scratch is retained across appends).
func TestLedgerAppendAllocFree(t *testing.T) {
	l := NewLedger(io.Discard)
	rec := sampleRecords()[0]
	l.Append(&rec) // warm up the scratch buffer
	if allocs := testing.AllocsPerRun(1000, func() { l.Append(&rec) }); allocs != 0 {
		t.Fatalf("Append allocates %.0f times per call, want 0", allocs)
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.Append(&Record{})
	if l.Len() != 0 {
		t.Fatal("nil ledger Len != 0")
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("nil ledger Flush = %v", err)
	}
}

const goodLedgerLine = `{"v":2,"key":"3483c277d768d38c888ead5fc8fae71f732ae3b7f3ea19f97be1c9334c3e7b84","program":"a","system":"wb","engine":"ref","cache":1,"ways":1,"schedule":"none","outcome":"ok","cycles":1,"instructions":1,"checkpoints":0,"nvm_read_bytes":0,"nvm_write_bytes":0,"cache_hits":0,"cache_misses":0,"power_failures":0,"wall_micros":5}`

// A malformed FINAL line is crash truncation (process killed mid-append): the
// load succeeds, the line is counted as skipped, and the good prefix is kept.
func TestReadLedgerCrashTruncatedTail(t *testing.T) {
	for _, tail := range []string{
		`{"v":1, truncated`,       // cut inside a field
		goodLedgerLine[:40],       // cut mid-record
		`garbage`,                 // not JSON at all
		"{\"v\":1, truncated\n",   // truncated but newline made it out
		"{\"v\":1, truncated\n\n", // trailing blank line after the stump
	} {
		in := goodLedgerLine + "\n\n" + tail
		recs, skipped, err := ReadLedger(strings.NewReader(in))
		if err != nil {
			t.Fatalf("tail %q: crash-truncated tail failed the load: %v", tail, err)
		}
		if skipped != 1 {
			t.Errorf("tail %q: skipped = %d, want 1", tail, skipped)
		}
		if len(recs) != 1 {
			t.Errorf("tail %q: kept %d records, want 1", tail, len(recs))
		}
	}
}

// A malformed line with valid records after it is not crash truncation and
// must still fail, naming the offending line.
func TestReadLedgerMalformedMidStream(t *testing.T) {
	in := goodLedgerLine + "\n\n{\"v\":1, truncated\n" + goodLedgerLine + "\n"
	recs, _, err := ReadLedger(strings.NewReader(in))
	if err == nil {
		t.Fatal("ReadLedger accepted mid-stream malformed line")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}
	if len(recs) != 1 {
		t.Fatalf("ReadLedger returned %d good records, want 1", len(recs))
	}
}

type failWriter struct{ failed bool }

func (f *failWriter) Write(p []byte) (int, error) {
	f.failed = true
	return 0, io.ErrClosedPipe
}

func TestLedgerStickyError(t *testing.T) {
	fw := &failWriter{}
	l := NewLedger(fw)
	rec := sampleRecords()[0]
	l.Append(&rec)
	if err := l.Flush(); err == nil {
		t.Fatal("Flush did not surface write error")
	}
	before := l.Len()
	l.Append(&rec) // dropped: error is sticky
	if l.Len() != before {
		t.Fatal("Append after error still counted a record")
	}
}
