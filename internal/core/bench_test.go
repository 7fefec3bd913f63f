package core

import (
	"testing"

	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
)

// BenchmarkFullLoadHit measures a warm read hit through the sim.System
// interface: the call both execution engines make for every cached load.
func BenchmarkFullLoadHit(b *testing.B) {
	nvm := mem.NewNVM(mem.NewSpace())
	k, err := New("bench", nvm, Options{
		CacheSize: 512, Ways: 2, WARMode: WARCacheBits,
	})
	if err != nil {
		b.Fatal(err)
	}
	var c metrics.Counters
	k.Attach(&sim.TestClock{}, &fakeRegs{sp: mem.StackTop}, &c, nil)
	var sys sim.System = k
	for a := uint32(0x1000); a < 0x1000+512; a += 4 {
		sys.Store(a, 4, a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Load(0x1000+uint32(i*4)&255, 4)
	}
}
