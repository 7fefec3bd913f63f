package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Campaign span tracing: a hierarchical wall-clock timeline of a whole
// campaign — campaign → shard/matrix-cell → run → explorer-window — next to
// the existing single-run simulated-time trace (TraceEventProbe).
//
// The emit hot path mirrors the registry's design constraints: Begin and End
// on an installed tracer are a fixed number of atomic operations into a
// pre-allocated span arena, with no lock, no map, and no allocation (pinned
// by TestSpanEmitAllocFree), so span tracing can stay attached to a
// campaign's every run without perturbing the harness. When the arena fills,
// further spans are counted as dropped rather than grown — a campaign trace
// degrades, it never stalls the workers.
//
// One tracer (and one ledger) can be installed process-wide; every layer that
// emits spans — the harness run path, the experiment regenerator, the fuzz
// campaign, the snapshot explorer — reads the installed tracer through one
// atomic pointer load and treats nil as "tracing off". All Tracer methods are
// nil-receiver-safe for exactly that reason.

// SpanKind classifies one level of the campaign hierarchy.
type SpanKind uint8

const (
	// SpanCampaign is the root: one whole CLI invocation or API campaign.
	SpanCampaign SpanKind = iota
	// SpanCell is one shard of a campaign: an experiment regeneration in
	// nachobench, one fuzzed seed in nachofuzz.
	SpanCell
	// SpanRun is one simulation executed by the harness.
	SpanRun
	// SpanWindow is one checkpoint window enumerated by the snapshot
	// explorer (the fan-out unit of exhaustive mode).
	SpanWindow
	numSpanKinds
)

// String names the kind as rendered in trace exports.
func (k SpanKind) String() string {
	switch k {
	case SpanCampaign:
		return "campaign"
	case SpanCell:
		return "cell"
	case SpanRun:
		return "run"
	case SpanWindow:
		return "window"
	}
	return "span"
}

// SpanID identifies one span within its tracer. The zero value means "no
// span" and is accepted everywhere a parent is: it resolves to the tracer's
// ambient parent (see SetAmbient), so emit sites need no plumbing to attach
// to the level currently in scope.
type SpanID uint64

// span is one arena slot. start doubles as the publication barrier: it is
// stored (release) last in Begin, and any reader that observes start != 0 may
// read the plain fields written before it. end is stored atomically so End
// may be called from a goroutine other than the opener.
type span struct {
	start  atomic.Int64 // unix nanos; 0 = slot not yet published
	end    atomic.Int64 // unix nanos; 0 = still open
	parent SpanID
	kind   SpanKind
	err    bool
	name   string
	system string
	engine string
	n1, n2 uint64 // kind-specific: run = simulated cycles; window = instants, first instant
}

// Tracer records spans into a fixed-capacity arena.
type Tracer struct {
	spans   []span
	next    atomic.Uint64 // slots allocated so far
	dropped atomic.Uint64
	ambient atomic.Uint64 // SpanID used when a parent of 0 is given
}

// DefaultSpanCapacity bounds a tracer's arena when no explicit capacity is
// given: enough for the full paper matrix plus a long fuzz campaign.
const DefaultSpanCapacity = 1 << 16

// NewTracer returns a tracer with capacity arena slots (DefaultSpanCapacity
// if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{spans: make([]span, capacity)}
}

// The process-wide campaign tracer and ledger, consulted by every emit site.
var (
	activeTracer atomic.Pointer[Tracer]
	activeLedger atomic.Pointer[Ledger]
)

// SetActiveTracer installs t as the process-wide campaign tracer (nil
// uninstalls) and returns the previous one. Campaigns are expected to be one
// at a time per process; installation is for CLI/campaign startup, not for
// concurrent use.
func SetActiveTracer(t *Tracer) *Tracer { return activeTracer.Swap(t) }

// ActiveTracer returns the installed campaign tracer, or nil when tracing is
// off. All Tracer methods accept a nil receiver, so emit sites can call
// ActiveTracer().Begin(...) unconditionally.
func ActiveTracer() *Tracer { return activeTracer.Load() }

// SetActiveLedger installs l as the process-wide run ledger (nil uninstalls)
// and returns the previous one.
func SetActiveLedger(l *Ledger) *Ledger { return activeLedger.Swap(l) }

// ActiveLedger returns the installed run ledger, or nil when off.
func ActiveLedger() *Ledger { return activeLedger.Load() }

// Begin opens a span and returns its ID (0 when the tracer is nil or the
// arena is full — every other method treats a 0 ID as a no-op, so emit sites
// never check). parent 0 attaches to the ambient span. name, system and
// engine are stored by reference, not formatted: callers pass strings that
// already exist (program names, systems.Kind, engine names) and the hot path
// allocates nothing.
func (t *Tracer) Begin(parent SpanID, kind SpanKind, name, system, engine string) SpanID {
	if t == nil {
		return 0
	}
	n := t.next.Add(1)
	if n > uint64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	s := &t.spans[n-1]
	if parent == 0 {
		parent = SpanID(t.ambient.Load())
	}
	s.parent = parent
	s.kind = kind
	s.name = name
	s.system = system
	s.engine = engine
	s.start.Store(time.Now().UnixNano()) // publish
	return SpanID(n)
}

// End closes a span. n1/n2 carry the kind-specific numeric payload (a run's
// simulated cycles; a window's instant count and first instant), err marks
// the span failed in the export.
func (t *Tracer) End(id SpanID, n1, n2 uint64, err bool) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.n1, s.n2 = n1, n2
	s.err = err
	s.end.Store(time.Now().UnixNano())
}

// SetName replaces a span's display name, for spans whose name is only known
// after they open (an experiment title produced by its builder). Call it
// between Begin and End, from the goroutine that owns the span; snapshots
// (Spans, WriteTrace) are taken after emitters finish.
func (t *Tracer) SetName(id SpanID, name string) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].name = name
}

// SetAmbient sets the span new spans attach to when their parent is 0, and
// returns the previous ambient. The experiment regenerator brackets each
// experiment with it so every run span lands under the right cell without the
// run path knowing about cells; campaigns set it to the root at start.
func (t *Tracer) SetAmbient(id SpanID) SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.ambient.Swap(uint64(id)))
}

// Dropped reports spans discarded because the arena was full.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Span is one recorded span in a Spans snapshot.
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   SpanKind
	Name   string
	System string
	Engine string
	Start  int64 // unix nanos
	End    int64 // unix nanos; 0 while still open
	N1, N2 uint64
	Err    bool
}

// Spans snapshots every published span in ID order. Spans still open have
// End 0; their numeric payload is not yet meaningful. Intended for after a
// campaign completes (trace export, the well-formedness tests) — a snapshot
// concurrent with emitters simply misses spans not yet published.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	n := t.next.Load()
	if n > uint64(len(t.spans)) {
		n = uint64(len(t.spans))
	}
	out := make([]Span, 0, n)
	for i := uint64(0); i < n; i++ {
		s := &t.spans[i]
		start := s.start.Load()
		if start == 0 {
			continue // allocated but not yet published
		}
		out = append(out, Span{
			ID:     SpanID(i + 1),
			Parent: s.parent,
			Kind:   s.kind,
			Name:   s.name,
			System: s.system,
			Engine: s.engine,
			Start:  start,
			End:    s.end.Load(),
			N1:     s.n1,
			N2:     s.n2,
			Err:    s.err,
		})
	}
	return out
}

// Track (tid) bases per kind in the campaign trace export. Within one kind,
// overlapping spans (concurrent workers) are spread across lanes so Perfetto
// renders them side by side instead of stacking unrelated slices.
var spanKindTidBase = [numSpanKinds]int{
	SpanCampaign: 1,
	SpanCell:     10,
	SpanRun:      100,
	SpanWindow:   600,
}

// WriteTrace renders the recorded spans as Chrome trace-event JSON — the
// same format, through the same writer, as the single-run TraceEventProbe,
// loadable at ui.perfetto.dev — with one process, per-kind track groups,
// and each span's hierarchy (id/parent), system, engine, and numeric
// payload in args. Timestamps are wall-clock microseconds relative to the
// earliest span. Spans still open are closed at the latest observed
// timestamp so a partial campaign still loads. Call it after the campaign
// completes.
func (t *Tracer) WriteTrace(w io.Writer) error { return writeSpanTrace(w, t.Spans()) }

// writeSpanTrace renders spans as WriteTrace documents it.
func writeSpanTrace(w io.Writer, spans []Span) error {
	var base, last int64
	for _, s := range spans {
		if base == 0 || s.Start < base {
			base = s.Start
		}
		if s.Start > last {
			last = s.Start
		}
		if s.End > last {
			last = s.End
		}
	}

	// Assign each span a lane within its kind so concurrent spans never
	// overlap on one track: greedy first-fit over lane end-times, in start
	// order. Deterministic for a given span set.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.ID < sb.ID
	})
	laneEnds := make(map[SpanKind][]int64)
	tids := make([]int, len(spans))
	maxLane := make(map[SpanKind]int)
	for _, i := range order {
		s := spans[i]
		end := s.End
		if end == 0 {
			end = last
		}
		lanes := laneEnds[s.Kind]
		lane := -1
		for li, le := range lanes {
			if le <= s.Start {
				lane = li
				break
			}
		}
		if lane < 0 {
			lane = len(lanes)
			lanes = append(lanes, 0)
		}
		lanes[lane] = end
		laneEnds[s.Kind] = lanes
		tids[i] = spanKindTidBase[s.Kind] + lane
		if lane > maxLane[s.Kind] {
			maxLane[s.Kind] = lane
		}
	}

	tw := newTraceWriter(w, "nacho campaign")
	for kind := SpanKind(0); kind < numSpanKinds; kind++ {
		for lane := 0; lane <= maxLane[kind]; lane++ {
			if _, ok := laneEnds[kind]; !ok {
				continue
			}
			if lane >= len(laneEnds[kind]) {
				continue
			}
			tid := spanKindTidBase[kind] + lane
			name := kind.String()
			if len(laneEnds[kind]) > 1 {
				name = fmt.Sprintf("%s %d", kind, lane)
			}
			tw.thread(tid, name)
		}
	}
	for i, s := range spans {
		end := s.End
		if end == 0 {
			end = last
		}
		ts := float64(s.Start-base) / 1e3
		dur := float64(end-s.Start) / 1e3
		if dur < 0 {
			dur = 0
		}
		name := s.Name
		if name == "" {
			name = s.Kind.String()
		}
		tw.event(`{"ph":"X","pid":1,"tid":%d,"name":%q,"cat":%q,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"system":%q,"engine":%q,"n1":%d,"n2":%d,"error":%t}}`,
			tids[i], name, s.Kind, ts, dur, s.ID, s.Parent, s.System, s.Engine, s.N1, s.N2, s.Err)
	}
	return tw.close()
}
