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
// DefaultKinds may allocate: the measured 72,760 bytes plus 25%. Every
// oracle run gives its system's memory space, cache storage and trackers and
// its verifier's shadow, journal and tracker back to the free lists, so what
// is left is per-run set-up (machines, the rendered image) and the image's
// frozen space. Before runs gave their memory back, and while schedules came
// from math/rand's 607-word source, the same check allocated 486,264 bytes;
// before caches recycled their storage, 142,088.
const (
	allocSeed       = 1
	checkAllocBound = 72_760 * 5 / 4
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

// exhaustiveAllocBound is the most one warm CheckExhaustive of allocSeed's
// program across DefaultKinds (2,452 crash instants, 145 tails) may
// allocate: the measured 3,707,768 bytes plus 25%. The explorer releases
// every fork, class and tail, and caches recycle their storage, so what is
// left is mostly the forked machines themselves. Before that, the same check
// allocated 14,161,688 bytes.
const exhaustiveAllocBound = 3_707_768 * 5 / 4

// TestExhaustiveAllocatedBytes pins the bytes one exhaustive oracle check
// allocates once the free lists are warm, with the garbage collector off as
// in TestCheckAllocatedBytes.
func TestExhaustiveAllocatedBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	prog := Generate(allocSeed)
	var stats ExhaustiveStats
	check := func() {
		fs, st, err := CheckExhaustive(prog, DefaultKinds(), ExhaustiveConfig{})
		if err != nil || len(fs) != 0 {
			t.Fatalf("seed %d: findings %v, error %v", allocSeed, fs, err)
		}
		stats = st
	}
	check() // warms the free lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	check()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one warm CheckExhaustive of seed %d (%d instants, %d tails) allocates %d bytes (bound %d)",
		allocSeed, stats.Instants, stats.Tails, got, exhaustiveAllocBound)
	if got > exhaustiveAllocBound {
		t.Fatalf("one warm CheckExhaustive of seed %d allocates %d bytes, over the bound of %d", allocSeed, got, exhaustiveAllocBound)
	}
}
