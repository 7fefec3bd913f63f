//go:build !race

// Allocation gates are meaningless under the race detector's instrumented
// allocator, so this file is excluded from -race runs; ci.sh runs it
// explicitly without -race as the hit-path allocation gate.

package core

import "testing"

// TestControllerHitPathZeroAlloc gates the execution engines' inner loop:
// both engines call Controller.Load/Store for every data access, so a warm
// hit — cache probe, WAR-bit update, LRU touch, data access — must not
// allocate, or every cached load would churn the garbage collector.
func TestControllerHitPathZeroAlloc(t *testing.T) {
	r := newRig(t, 512, 2, WARCacheBits, false)
	const addr = 0x1000
	r.k.Store(addr, 4, 0xABCD) // warm: the line is resident and dirty
	misses := r.c.CacheMisses
	if n := testing.AllocsPerRun(200, func() {
		r.k.Load(addr, 4)
		r.k.Store(addr, 4, 0x1234)
	}); n != 0 {
		t.Fatalf("controller hit path allocates: %v allocs/op", n)
	}
	if r.c.CacheMisses != misses {
		t.Fatal("warm access missed; the gate measured the miss path")
	}
}
