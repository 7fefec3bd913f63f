//go:build !race

// The race detector's instrumented allocator and its randomly dropping
// sync.Pool break an allocation count, so this file is excluded from -race
// runs.

package fuzzer

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// checkAllocBound is the most one warm Check of allocSeed's program across
// DefaultKinds may allocate: the measured 142,088 bytes plus 25%. Every
// oracle run gives its system's memory space and trackers and its
// verifier's shadow, journal and tracker back to the free lists, so what is
// left is per-run set-up (caches, machines, the rendered image) and the
// image's frozen space. Before runs gave their memory back, and while
// schedules came from math/rand's 607-word source, the same check allocated
// 486,264 bytes.
const (
	allocSeed       = 1
	checkAllocBound = 142_088 * 5 / 4
)

// TestCheckAllocatedBytes pins the bytes one fuzz oracle check allocates
// once the free lists are warm. The garbage collector stays off while it
// measures, since a collection empties the free lists.
func TestCheckAllocatedBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	prog := Generate(allocSeed)
	check := func() {
		if fs, err := Check(prog, DefaultKinds(), Config{}); err != nil || len(fs) != 0 {
			t.Fatalf("seed %d: findings %v, error %v", allocSeed, fs, err)
		}
	}
	check() // warms the free lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	check()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one warm Check of seed %d allocates %d bytes (bound %d)", allocSeed, got, checkAllocBound)
	if got > checkAllocBound {
		t.Fatalf("one warm Check of seed %d allocates %d bytes, over the bound of %d", allocSeed, got, checkAllocBound)
	}
}
