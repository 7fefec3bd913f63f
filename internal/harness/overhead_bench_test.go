package harness_test

import (
	"testing"

	"nacho/internal/harness"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// BenchmarkRunNoProbe bounds the observability cost on a whole simulation:
// the detached fast path, a nil-check branch per event site plus the per-run
// accounting (a few atomics and one locked fold of the run's counters into
// the nacho_sim_* sum). It is the number that must stay flat release to
// release.
func BenchmarkRunNoProbe(b *testing.B) {
	p, ok := program.ByName("crc")
	if !ok {
		b.Fatal("crc benchmark missing")
	}
	img, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.DefaultRunConfig()
	cfg.Verify = false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunImage(img, systems.KindNACHO, cfg, false); err != nil {
			b.Fatal(err)
		}
	}
}
