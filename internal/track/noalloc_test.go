//go:build !race

// Allocation gates are meaningless under the race detector's instrumented
// allocator, so this file is excluded from -race runs.

package track

import "testing"

// TestObserveZeroAlloc gates the tracker's per-access cost: on a warmed
// tracker, observing reads and writes and resetting the interval must not
// allocate.
func TestObserveZeroAlloc(t *testing.T) {
	tr := New()
	step := func() {
		tr.ObserveRead(0x2_0000, 4)
		tr.ObserveWrite(0x2_0004, 2)
		tr.ObserveWrite(0x9_FFFC, 4)
		tr.Reset()
	}
	step()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("ObserveRead/ObserveWrite/Reset allocates: %v allocs/op", n)
	}
}
