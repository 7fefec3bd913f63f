package telemetry

import (
	"fmt"
	"io"
	"testing"
)

// benchBuckets are histogram bounds for the hot-path tests and benchmarks.
var benchBuckets = []uint64{1, 2, 4, 8, 16, 32, 64, 128}

// Metric updates must not allocate: an instrument may be updated once per
// run or per simulated event, potentially billions of times per sweep.
func TestHotPathZeroAlloc(t *testing.T) {
	h := NewHistogram(benchBuckets)
	NewRegistry().RegisterHistogram("h", "x", h)

	for name, fn := range map[string]func(){
		"Histogram.Observe": func() { h.Observe(17) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, allocs)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(benchBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i & 255))
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	// A registry the size of a served one: two dozen counters, labelled
	// families and per-engine histograms.
	r := NewRegistry()
	for i := 0; i < 24; i++ {
		r.NewCounterFunc(fmt.Sprintf("c%d_total", i), "x", func() uint64 { return uint64(i) })
	}
	for _, v := range []string{"a", "b", "c"} {
		r.NewCounterFunc("labelled_total", "x", func() uint64 { return 1 }, Label{"kind", v})
		h := NewHistogram(benchBuckets)
		h.Observe(3)
		r.RegisterHistogram("h", "x", h, Label{"engine", v})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
