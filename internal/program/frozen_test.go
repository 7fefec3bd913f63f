package program

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nacho/internal/asm"
	"nacho/internal/mem"
)

// TestFrozenSpaceLoadsOnce checks FrozenSpace loads every segment, returns
// the same space on every call, and rejects segments that overlap the stack
// region or the checkpoint area.
func TestFrozenSpaceLoadsOnce(t *testing.T) {
	img, err := FromSource("frozen", "_start:\n ebreak\n.data\nx: .word 0x11223344\n")
	if err != nil {
		t.Fatal(err)
	}
	a, err := img.FrozenSpace()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := img.FrozenSpace(); b != a {
		t.Fatal("FrozenSpace loaded the image twice")
	}
	if got := a.Read(mem.DataBase, 4); got != 0x11223344 {
		t.Fatalf("data word = %#x, want 0x11223344", got)
	}
	for _, c := range []struct {
		addr uint32
		want string
	}{
		{mem.StackTop - 0x100, "overlaps the stack region"},
		{mem.CheckpointBase, "overlaps the checkpoint area"},
	} {
		bad := &Image{Program: img.Program, Segments: []asm.Segment{{Addr: c.addr, Data: make([]byte, 8)}}}
		if _, err := bad.FrozenSpace(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("segment at %#x: err = %v, want %q", c.addr, err, c.want)
		}
	}
}

// TestFrozenSpaceDiesWithImage pins the frozen space's lifetime to its
// image's: once the image is unreachable, a collection frees the space. A
// process-wide cache of frozen spaces would keep every space alive, and a
// fuzz campaign renders thousands of images.
func TestFrozenSpaceDiesWithImage(t *testing.T) {
	freed := make(chan struct{})
	func() {
		img, err := FromSource("lifetime", "_start:\n ebreak\n.data\nx: .word 1\n")
		if err != nil {
			t.Fatal(err)
		}
		frozen, err := img.FrozenSpace()
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(frozen, func(*mem.Space) { close(freed) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the frozen space outlived its image")
}
