package telemetry

import (
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	var n atomic.Uint64
	r.NewCounterFunc("c_total", "a counter", n.Load)
	n.Add(42)
	if v := r.byName["c_total"].series[0].value(); v != 42 {
		t.Errorf("counter = %g, want 42", v)
	}

	r.NewGaugeFunc("g", "a gauge", func() float64 { return 1.5 })
	if v := r.byName["g"].series[0].value(); v != 1.5 {
		t.Errorf("gauge = %g, want 1.5", v)
	}

	h := NewHistogram([]uint64{10, 100})
	r.RegisterHistogram("h", "a histogram", h)
	for _, v := range []uint64{1, 10, 11, 100, 101, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1223 {
		t.Errorf("histogram count=%d sum=%d, want 6/1223", h.Count(), h.Sum())
	}
	// Buckets are inclusive: le=10 holds {1,10}, le=100 adds {11,100},
	// +Inf adds {101,1000}.
	if got := h.counts[0].Load(); got != 2 {
		t.Errorf("bucket le=10 = %d, want 2", got)
	}
	if got := h.counts[1].Load(); got != 2 {
		t.Errorf("bucket le=100 = %d, want 2", got)
	}
	if got := h.counts[2].Load(); got != 2 {
		t.Errorf("bucket +Inf = %d, want 2", got)
	}
}

func TestRegistryFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := uint64(7)
	r.NewCounterFunc("fn_total", "func counter", func() uint64 { return n })
	r.NewGaugeFunc("fn_gauge", "func gauge", func() float64 { return 0.25 })
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fn_total 7\n", "fn_gauge 0.25\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, out.String())
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	zero := func() uint64 { return 0 }
	r.NewCounterFunc("ok_total", "fine", zero, Label{"l", "a"})
	mustPanic("bad metric name", func() { r.NewCounterFunc("0bad", "x", zero) })
	mustPanic("bad label name", func() { r.NewCounterFunc("ok2_total", "x", zero, Label{"0l", "v"}) })
	mustPanic("duplicate series", func() { r.NewCounterFunc("ok_total", "fine", zero, Label{"l", "a"}) })
	mustPanic("kind conflict", func() { r.NewGaugeFunc("ok_total", "fine", func() float64 { return 0 }) })
	mustPanic("help conflict", func() { r.NewCounterFunc("ok_total", "different", zero) })
	mustPanic("unsorted bounds", func() { NewHistogram([]uint64{10, 5}) })

	// Same family, different labels: allowed.
	r.NewCounterFunc("ok_total", "fine", zero, Label{"l", "b"})
}

// promSampleRe matches one sample line of the text exposition format.
var promSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\+Inf|-Inf|NaN|-?[0-9.eE+-]+)$`)

// checkPrometheusText asserts every line of a text exposition parses, and
// returns the parsed samples as name{labels} -> value.
func checkPrometheusText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable exposition line: %q", line)
			continue
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.NewCounterFunc("runs_total", "Total runs.", func() uint64 { return 3 }, Label{"kind", "nacho"})
	r.NewGaugeFunc("busy", "Busy workers.", func() float64 { return 2 })
	h := NewHistogram([]uint64{1, 8})
	r.RegisterHistogram("lines", "Checkpoint lines.", h)
	h.Observe(1)
	h.Observe(5)
	h.Observe(100)

	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	samples := checkPrometheusText(t, text)

	want := map[string]float64{
		`runs_total{kind="nacho"}`: 3,
		`busy`:                     2,
		`lines_bucket{le="1"}`:     1,
		`lines_bucket{le="8"}`:     2,
		`lines_bucket{le="+Inf"}`:  3,
		`lines_sum`:                106,
		`lines_count`:              3,
	}
	for k, v := range want {
		if samples[k] != v {
			t.Errorf("sample %s = %g, want %g\n%s", k, samples[k], v, text)
		}
	}
	for _, hdr := range []string{
		"# TYPE runs_total counter", "# TYPE busy gauge", "# TYPE lines histogram",
		"# HELP runs_total Total runs.",
	} {
		if !strings.Contains(text, hdr+"\n") {
			t.Errorf("exposition missing %q:\n%s", hdr, text)
		}
	}
	// One HELP/TYPE block per family even with many series.
	if n := strings.Count(text, "# TYPE runs_total"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1", n)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.NewCounterFunc("a_total", "A.", func() uint64 { return 5 }, Label{"x", "y"})
	h := NewHistogram([]uint64{10})
	r.RegisterHistogram("h", "H.", h)
	h.Observe(3)
	h.Observe(30)

	var out strings.Builder
	if err := r.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var samples []Sample
	if err := json.Unmarshal([]byte(out.String()), &samples); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	if samples[0].Name != "a_total" || samples[0].Value != 5 || samples[0].Labels["x"] != "y" {
		t.Errorf("counter sample wrong: %+v", samples[0])
	}
	hs := samples[1]
	if hs.Histogram == nil || hs.Histogram.Count != 2 || hs.Histogram.Sum != 33 {
		t.Fatalf("histogram sample wrong: %+v", hs)
	}
	wantBuckets := []Bucket{{Le: "10", Count: 1}, {Le: "+Inf", Count: 2}}
	if len(hs.Histogram.Buckets) != 2 || hs.Histogram.Buckets[0] != wantBuckets[0] || hs.Histogram.Buckets[1] != wantBuckets[1] {
		t.Errorf("buckets = %+v, want %+v", hs.Histogram.Buckets, wantBuckets)
	}
}

func TestConcurrentHotPath(t *testing.T) {
	h := NewHistogram([]uint64{100})
	NewRegistry().RegisterHistogram("h", "x", h)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 10_000; j++ {
				h.Observe(uint64(j % 200))
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if h.Count() != 40_000 {
		t.Errorf("lost updates: hist=%d, want 40000", h.Count())
	}
}
