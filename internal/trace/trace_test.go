package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"nacho/internal/isa"
)

var testInstrs = []isa.Instr{
	{Op: isa.ADDI, Rd: isa.Reg(10), Rs1: isa.Reg(10), Imm: 5},
	{Op: isa.LW, Rd: isa.Reg(11), Rs1: isa.Reg(2), Imm: -8},
	{Op: isa.SW, Rs1: isa.Reg(2), Rs2: isa.Reg(11), Imm: 12},
}

// TestRecorderFormat pins the output byte-for-byte to the emulator's old
// unbuffered format: "%10d  %08x  %v\n" per instruction and the reboot
// marker on power failures.
func TestRecorderFormat(t *testing.T) {
	var got, want bytes.Buffer
	r := NewRecorder(&got)
	cycle := uint64(1)
	for i, in := range testInstrs {
		pc := 0x1000 + uint32(4*i)
		r.Retire(cycle, pc, in)
		fmt.Fprintf(&want, "%10d  %08x  %v\n", cycle, pc, in)
		cycle += 3
	}
	r.PowerFailure(cycle)
	fmt.Fprintf(&want, "%10d  -- power failure, rebooting --\n", cycle)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("trace output:\n%q\nwant:\n%q", got.String(), want.String())
	}
}

// countingWriter counts Write calls — the property the buffered recorder
// exists for.
type countingWriter struct {
	io.Writer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Writer.Write(p)
}

// TestRecorderBuffers proves the recorder does not pay one Write per
// instruction: tracing many instructions costs a handful of chunked writes.
func TestRecorderBuffers(t *testing.T) {
	const n = 3 * bufEntries
	cw := &countingWriter{Writer: io.Discard}
	r := NewRecorder(cw)
	for i := 0; i < n; i++ {
		r.Retire(uint64(i), 0x1000, testInstrs[0])
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := n/bufEntries + 1; cw.writes > want {
		t.Errorf("%d instructions took %d writes, want at most %d", n, cw.writes, want)
	}
}

// errWriter fails every write.
type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

func TestRecorderSurfacesWriteError(t *testing.T) {
	sentinel := errors.New("disk full")
	r := NewRecorder(errWriter{sentinel})
	r.Retire(0, 0, testInstrs[0])
	if err := r.Flush(); !errors.Is(err, sentinel) {
		t.Errorf("Flush() = %v, want %v", err, sentinel)
	}
	// Later flushes keep reporting the first error and must not panic.
	r.Retire(0, 0, testInstrs[0])
	if err := r.Flush(); !errors.Is(err, sentinel) {
		t.Errorf("second Flush() = %v, want %v", err, sentinel)
	}
}

// TestRecorderDropsAfterWriteError: once a write has failed, the recorder
// drops later entries without rendering them, so a run tracing to a failed
// writer does not pay for formatting output nobody receives.
func TestRecorderDropsAfterWriteError(t *testing.T) {
	r := NewRecorder(errWriter{errors.New("disk full")})
	r.Retire(0, 0, testInstrs[0])
	if r.Flush() == nil {
		t.Fatal("Flush() = nil after a failed write")
	}
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < bufEntries; i++ {
			r.Retire(uint64(1000+i), 0x1000, testInstrs[i%len(testInstrs)])
		}
	})
	if allocs != 0 {
		t.Errorf("a full buffer of entries after a write error costs %.0f allocations, want 0", allocs)
	}
}

// BenchmarkRecorder vs BenchmarkUnbufferedFprintf quantifies the refactor's
// win: the old trace path formatted and wrote each instruction individually.
func BenchmarkRecorder(b *testing.B) {
	r := NewRecorder(io.Discard)
	cycle, pc, in := uint64(123456), uint32(0x1040), testInstrs[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Retire(cycle, pc, in)
	}
	r.Flush()
}

func BenchmarkUnbufferedFprintf(b *testing.B) {
	cycle, pc, in := uint64(123456), uint32(0x1040), testInstrs[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fmt.Fprintf(io.Discard, "%10d  %08x  %v\n", cycle, pc, in)
	}
}
