package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// traceWriter is the one Chrome trace-event JSON writer behind both trace
// exports — TraceEventProbe's single-run timeline and Tracer.WriteTrace's
// campaign spans. It owns the document framing: the header, the
// process_name/thread_name/thread_sort_index metadata, the event separators
// and the footer, so the two exports cannot drift apart. Each event sits on
// its own line; a write error is sticky and drops everything after it.
type traceWriter struct {
	w   *bufio.Writer
	n   int // events written so far
	err error
}

// newTraceWriter starts a document on w and names its single process.
func newTraceWriter(w io.Writer, process string) *traceWriter {
	t := &traceWriter{w: bufio.NewWriterSize(w, 1<<16)}
	_, t.err = t.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	t.event(`{"ph":"M","pid":1,"name":"process_name","args":{"name":%q}}`, process)
	return t
}

// thread names track tid and pins its position in the viewer to tid.
func (t *traceWriter) thread(tid int, name string) {
	t.event(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`, tid, name)
	t.event(`{"ph":"M","pid":1,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, tid, tid)
}

// event appends one JSON object, comma-separating after the first.
func (t *traceWriter) event(format string, args ...any) {
	if t.err != nil {
		return
	}
	if t.n > 0 {
		t.w.WriteByte(',')
	}
	t.w.WriteByte('\n')
	if _, err := fmt.Fprintf(t.w, format, args...); err != nil {
		t.err = err
		return
	}
	t.n++
}

// close terminates the document and flushes it, returning the first error
// encountered anywhere in the stream.
func (t *traceWriter) close() error {
	if t.err == nil {
		_, t.err = t.w.WriteString("\n]}\n")
	}
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}
