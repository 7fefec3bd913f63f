// Package telemetry is the export layer over the simulation's observability
// seams: a concurrency-safe metrics registry with Prometheus-text and JSON
// exposition, a Chrome-trace-event/Perfetto renderer for visual timelines,
// the span tracer and run ledger, and an HTTP server exposing the registry
// live (/metrics, /status, /dashboard, /debug/pprof).
//
// Counters and gauges are read from caller state at scrape time
// (NewCounterFunc, NewGaugeFunc). Histogram.Observe is a handful of atomic
// operations and performs no allocation (pinned by TestHotPathZeroAlloc), so
// a histogram can observe every run of a parallel sweep unconditionally and
// attach to a registry only when one exists (RegisterHistogram).
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Histogram counts integer observations into fixed buckets. Bounds are
// inclusive upper limits (Prometheus `le` semantics); an implicit +Inf bucket
// catches everything beyond the last bound. Observations, sum, count and max
// are all atomic; Observe is a linear scan over the (small, fixed) bound
// slice plus a handful of atomic operations — no allocation, no lock.
type Histogram struct {
	bounds []uint64        // sorted inclusive upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64
	count  atomic.Uint64
	max    atomic.Uint64
}

// NewHistogram returns a histogram with the given inclusive upper bounds
// (must be sorted ascending; the +Inf bucket is implicit). Histograms let
// always-on accounting (e.g. the harness's per-engine run wall-time
// tracking) observe unconditionally and attach to a registry only when one
// exists — see Registry.RegisterHistogram.
func NewHistogram(bounds []uint64) *Histogram {
	if !sort.SliceIsSorted(bounds, func(i, j int) bool { return bounds[i] < bounds[j] }) {
		panic(fmt.Sprintf("telemetry: histogram bounds not sorted: %v", bounds))
	}
	return &Histogram{bounds: append([]uint64(nil), bounds...), counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	// Max first, so a concurrent Quantile never sees a bucket count whose
	// observation its max clamp does not yet cover.
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Quantile estimates the q-th quantile (q in [0,1]) by linear interpolation
// within the bucket that contains it, the standard Prometheus estimation,
// clamped to the exact tracked maximum: interpolation assumes observations
// spread up to the bucket's bound, so without the clamp a lone observation
// low in a wide bucket would report a quantile above every observation. The
// +Inf bucket answers with the maximum outright, so Quantile(1) — and any
// quantile landing beyond the last finite bound — is exact rather than
// unbounded. Returns 0 when nothing has been observed.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, bound := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank && c > 0 {
			lo := float64(0)
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			hi := float64(bound)
			frac := (rank - float64(cum)) / float64(c)
			return min(lo+(hi-lo)*frac, float64(h.Max()))
		}
		cum += c
	}
	// The quantile lands in the +Inf bucket: the tracked max is the best
	// (and, for Quantile(1), exact) answer.
	return float64(h.Max())
}

// Label is one constant name="value" pair attached to a metric series.
type Label struct{ Name, Value string }

// kind is the exposition type of a metric family.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labelled sample stream within a family. Exactly one of the
// value sources is set.
type series struct {
	labels    []Label
	labelsStr string // pre-rendered {k="v",...}, "" when unlabelled

	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// value returns the series' scalar value at scrape time (histograms are
// rendered separately).
func (s *series) value() float64 {
	switch {
	case s.counterFn != nil:
		return float64(s.counterFn())
	case s.gaugeFn != nil:
		return s.gaugeFn()
	}
	return 0
}

// family groups every series sharing one metric name (one HELP/TYPE block in
// the Prometheus exposition).
type family struct {
	name, help string
	kind       kind
	series     []*series
}

// Registry holds an ordered set of metric families. Registration takes a
// lock; reads and writes of registered metrics are lock-free. Every
// registration method panics on an invalid name, a duplicate (name, labels)
// pair, or a help/type conflict with an existing family — registration
// mistakes are programmer errors, caught at startup.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// RegisterHistogram exposes a histogram (see NewHistogram) as a registered
// series, so state maintained unconditionally elsewhere appears in the
// exposition without double bookkeeping.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(name, help, kindHistogram, &series{labels: labels, hist: h})
}

// NewCounterFunc registers a counter whose value is read from fn at scrape
// time (for pre-existing atomic state maintained elsewhere, e.g. the harness
// worker pool). fn must be concurrency-safe and monotonic.
func (r *Registry) NewCounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, kindCounter, &series{labels: labels, counterFn: fn})
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape time.
// fn must be concurrency-safe.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &series{labels: labels, gaugeFn: fn})
}

func (r *Registry) register(name, help string, k kind, s *series) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range s.labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("telemetry: metric %q: invalid label name %q", name, l.Name))
		}
	}
	s.labelsStr = renderLabels(s.labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: k}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else {
		if f.kind != k {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s, was %s", name, k, f.kind))
		}
		if f.help != help {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with different help", name))
		}
	}
	for _, prev := range f.series {
		if prev.labelsStr == s.labelsStr {
			panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, s.labelsStr))
		}
	}
	f.series = append(f.series, s)
}

// renderLabels pre-renders the {k="v",...} suffix once at registration so the
// exposition path never rebuilds it.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
