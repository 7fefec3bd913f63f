//go:build !race

// Allocation gates are meaningless under the race detector's instrumented
// allocator, so this file is excluded from -race runs.

package mem

import "testing"

var sinkWord uint32

// TestWordAccessZeroAlloc gates the page table's hot path: a word read and
// write on an owned page, and a read of memory no write has reached, are
// one table lookup each and must not allocate.
func TestWordAccessZeroAlloc(t *testing.T) {
	s := NewSpace()
	s.Write(0x2_0000, 4, 1)
	if n := testing.AllocsPerRun(200, func() {
		s.Write(0x2_0040, 4, sinkWord+1)
		sinkWord = s.Read(0x2_0040, 4)
	}); n != 0 {
		t.Fatalf("word Read/Write on an owned page allocates: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		sinkWord = s.Read(0x7000_0000, 4) + s.Read(0xFFFF_FFFC, 4)
	}); n != 0 {
		t.Fatalf("Read of a never-written page allocates: %v allocs/op", n)
	}
	if sinkWord != 0 {
		t.Fatalf("never-written memory read %#x, want 0", sinkWord)
	}
}

// TestReleaseReturnsOwnership gates what releasing a fork buys its parent:
// the fork's references go, so the parent owns its leaf and page again and
// writes them in place. Each step forks, releases and writes; the write must
// add no allocation to the fork's own.
func TestReleaseReturnsOwnership(t *testing.T) {
	s := NewSpace()
	s.Write(0x2_0000, 4, 1)
	fork := func() { s.Fork().Release() }
	forkWrite := func() {
		s.Fork().Release()
		s.Write(0x2_0040, 4, sinkWord+1)
	}
	if n, base := testing.AllocsPerRun(100, forkWrite), testing.AllocsPerRun(100, fork); n != base {
		t.Fatalf("a write after the only fork is released allocates: %v allocs/op, the fork and release alone %v", n, base)
	}
}
