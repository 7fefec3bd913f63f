// Package trace renders the per-instruction execution trace. The emulator
// feeds the recorder directly (emu.Config.Trace): one entry per retired
// instruction and one per power failure. It replaces the emulator's old
// hot-loop fmt.Fprintf — which paid one unbuffered Write per retired
// instruction — with a fixed-capacity entry buffer that is formatted and
// written in chunks. Output is byte-identical to the old format:
//
//	     cycle  pc        disassembly
//	%10d  %08x  %v\n
//
// plus the "-- power failure, rebooting --" reboot markers.
package trace

import (
	"bytes"
	"fmt"
	"io"

	"nacho/internal/isa"
)

// bufEntries is the number of events buffered between writes. At ~30 bytes a
// line this renders in ~256 KiB chunks — large enough that a traced run
// performs thousands of times fewer writes than instructions.
const bufEntries = 8192

// entry is one buffered trace event.
type entry struct {
	cycle  uint64
	pc     uint32
	in     isa.Instr
	marker bool // power-failure marker instead of an instruction
}

// Recorder buffers and renders the trace. Hand it to the emulator through
// emu.Config.Trace and Flush it once the run completes.
type Recorder struct {
	w      io.Writer
	buf    []entry
	render bytes.Buffer
	err    error // first write error; later output is dropped
}

// NewRecorder builds a recorder writing the rendered trace to w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w, buf: make([]entry, 0, bufEntries)}
}

// Retire records one line for a retired instruction. cycle is the cycle the
// instruction issued at (before its base cycle was charged), so the line
// carries the timestamp the instruction began.
func (r *Recorder) Retire(cycle uint64, pc uint32, in isa.Instr) {
	r.append(entry{cycle: cycle, pc: pc, in: in})
}

// PowerFailure records the reboot marker line of a power failure at cycle.
func (r *Recorder) PowerFailure(cycle uint64) {
	r.append(entry{cycle: cycle, marker: true})
}

func (r *Recorder) append(e entry) {
	if r.err != nil {
		return // a write failed: later output is dropped unrendered
	}
	r.buf = append(r.buf, e)
	if len(r.buf) == cap(r.buf) {
		r.flushBuf()
	}
}

// flushBuf renders the buffered entries and writes them as one chunk.
func (r *Recorder) flushBuf() {
	if len(r.buf) == 0 {
		return
	}
	r.render.Reset()
	for _, e := range r.buf {
		if e.marker {
			fmt.Fprintf(&r.render, "%10d  -- power failure, rebooting --\n", e.cycle)
		} else {
			fmt.Fprintf(&r.render, "%10d  %08x  %v\n", e.cycle, e.pc, e.in)
		}
	}
	r.buf = r.buf[:0]
	_, r.err = r.w.Write(r.render.Bytes())
}

// Flush writes any buffered entries and returns the first write error
// encountered over the recorder's lifetime.
func (r *Recorder) Flush() error {
	r.flushBuf()
	return r.err
}
