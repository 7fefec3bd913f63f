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
	r := NewRegistry()
	c := r.NewCounter("c_total", "x")
	h := r.NewHistogram("h", "x", benchBuckets)

	for name, fn := range map[string]func(){
		"Counter.Add":       func() { c.Add(3) },
		"Histogram.Observe": func() { h.Observe(17) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, allocs)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().NewCounter("c_total", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().NewHistogram("h", "x", benchBuckets)
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
		r.NewCounter("labelled_total", "x", Label{"kind", v}).Add(1)
		r.NewHistogram("h", "x", benchBuckets, Label{"engine", v}).Observe(3)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
