//go:build !race

// Allocation gates are meaningless under the race detector's instrumented
// allocator, so this file is excluded from -race runs; ci.sh runs it
// explicitly without -race as the fast-path allocation gate.

package core

import "testing"

// TestFastPortHitPathZeroAlloc gates the execution engines' inner loop: a
// served fast-port hit — probe, WAR observation, LRU touch, data access —
// must not allocate, or every cached load in the AOT engine would churn the
// garbage collector.
func TestFastPortHitPathZeroAlloc(t *testing.T) {
	r := newRig(t, 512, 2, WARCacheBits, false)
	port, ok := r.k.FastPort()
	if !ok {
		t.Fatal("fast port refused")
	}
	const addr = 0x1000
	r.k.Store(addr, 4, 0xABCD) // warm: valid and dirty, so both directions serve
	served := true
	if n := testing.AllocsPerRun(200, func() {
		_, okL := port.LoadHit(addr, 4)
		okS := port.StoreHit(addr, 4, 0x1234)
		served = served && okL && okS
	}); n != 0 {
		t.Fatalf("fast-port hit path allocates: %v allocs/op", n)
	}
	if !served {
		t.Fatal("warm hit declined; the gate measured the decline path")
	}
}
