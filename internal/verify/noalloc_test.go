//go:build !race

// Allocation gates are meaningless under the race detector's instrumented
// allocator, so this file is excluded from -race runs.

package verify

import "testing"

// TestCPUAccessZeroAlloc gates the verifier's per-access cost: once its
// shadow pages are owned and its journal has capacity, a checked load, a
// journalled store and an interval boundary must not allocate.
func TestCPUAccessZeroAlloc(t *testing.T) {
	v := newVerifier(Config{Rollback: true})
	warm := func() {
		v.CPUWrite(0x104, 4, 7)
		v.CPURead(0x100, 4, 0xCAFE)
		v.IntervalBoundary()
	}
	warm()
	if n := testing.AllocsPerRun(200, warm); n != 0 {
		t.Fatalf("CPUWrite/CPURead/IntervalBoundary allocates: %v allocs/op", n)
	}
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
}
