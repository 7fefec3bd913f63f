package telemetry

import (
	"io"
	"testing"

	"nacho/internal/sim"
)

// The hot path — metric updates and probe hooks — must not allocate: these
// run once per simulated event, potentially billions of times per sweep.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "x")
	h := r.NewHistogram("h", "x", CheckpointLineBuckets)
	p := NewProbe(NewRegistry())
	access := sim.AccessEvent{Cycle: 1, Addr: 0x100, Size: 4, Class: sim.AccessHit}
	nvm := sim.NVMEvent{Cycle: 1, Addr: 0x100, Bytes: 4, Write: true}

	for name, fn := range map[string]func(){
		"Counter.Add":       func() { c.Add(3) },
		"Histogram.Observe": func() { h.Observe(17) },
		"Probe.OnAccess":    func() { p.OnAccess(access) },
		"Probe.OnNVM":       func() { p.OnNVM(nvm) },
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
	h := NewRegistry().NewHistogram("h", "x", CheckpointLineBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i & 255))
	}
}

func BenchmarkProbeOnAccess(b *testing.B) {
	p := NewProbe(NewRegistry())
	e := sim.AccessEvent{Cycle: 1, Addr: 0x100, Size: 4, Class: sim.AccessHit}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.OnAccess(e)
	}
}

func BenchmarkProbeOnNVM(b *testing.B) {
	p := NewProbe(NewRegistry())
	e := sim.NVMEvent{Cycle: 1, Addr: 0x100, Bytes: 4, Write: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.OnNVM(e)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	NewProbe(r) // a realistic registry: the full sim metric set
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
