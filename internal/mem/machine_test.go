package mem_test

import (
	"testing"

	"nacho/internal/emu"
	"nacho/internal/mem"
)

// TestMachineConstants pins the one machine the repository simulates: the
// paper's Section 5.2 cost model and DESIGN.md §4's memory map, whose
// regions must stay in order and apart.
func TestMachineConstants(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"ClockHz", mem.ClockHz, 50_000_000},
		{"HitCycles", mem.HitCycles, 2},
		{"NVMCycles", mem.NVMCycles, 6},
		{"TextBase", mem.TextBase, 0x0001_0000},
		{"DataBase", mem.DataBase, 0x0002_0000},
		{"StackTop", mem.StackTop, 0x000A_0000},
		{"StackSize", mem.StackSize, 0x8000},
		{"CheckpointBase", mem.CheckpointBase, 0x000E_0000},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, c.got, c.want)
		}
	}

	text, data, stackTop, stackSize := uint32(mem.TextBase), uint32(mem.DataBase), uint32(mem.StackTop), uint32(mem.StackSize)
	if !(text < data && data < stackTop-stackSize) {
		t.Errorf("map out of order: text %#x, data %#x, stack band [%#x,%#x)", text, data, stackTop-stackSize, stackTop)
	}
	if ckpt := uint32(mem.CheckpointBase); !(stackTop <= ckpt && ckpt < emu.MMIOBase) {
		t.Errorf("checkpoint area %#x not between the stack top %#x and MMIO %#x", ckpt, stackTop, uint32(emu.MMIOBase))
	}

	for _, c := range []struct {
		ms   float64
		want uint64
	}{{5, 250_000}, {0.5, 25_000}, {0.2, 10_000}, {0, 0}} {
		if got := mem.CyclesForMillis(c.ms); got != c.want {
			t.Errorf("CyclesForMillis(%g) = %d, want %d", c.ms, got, c.want)
		}
	}
}
