//go:build !race

// Allocation gates are meaningless under the race detector's instrumented
// allocator, so this file is excluded from -race runs.

package verify

import (
	"testing"

	"nacho/internal/sim"
)

// TestOnAccessZeroAlloc gates the verifier's per-access cost: once its
// shadow pages are owned and its journal has capacity, a checked load, a
// journalled store and an interval boundary must not allocate.
func TestOnAccessZeroAlloc(t *testing.T) {
	v := newVerifier(Config{RollbackOnFailure: true, CheckWAR: true})
	load := sim.AccessEvent{Addr: 0x100, Size: 4, Value: 0xCAFE}
	store := sim.AccessEvent{Addr: 0x104, Size: 4, Value: 7, Store: true}
	warm := func() {
		v.OnAccess(store)
		v.OnAccess(load)
		v.IntervalBoundary()
	}
	warm()
	if n := testing.AllocsPerRun(200, warm); n != 0 {
		t.Fatalf("OnAccess/IntervalBoundary allocates: %v allocs/op", n)
	}
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
}
