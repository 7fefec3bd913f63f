package emu_test

import (
	"strings"
	"testing"

	"nacho/internal/asm"
	"nacho/internal/emu"
	"nacho/internal/mem"
	"nacho/internal/power"
	"nacho/internal/sim"
	"nacho/internal/systems"
)

// run assembles src and executes it on the given system kind.
func run(t *testing.T, src string, kind systems.Kind, cfg emu.Config) (emu.Result, error) {
	t.Helper()
	space, text, entry := load(t, src)
	return emu.New(build(t, kind, space), text, entry, cfg).Run()
}

// load assembles src into a fresh space and returns the space, the decoded
// text and the entry point.
func load(t *testing.T, src string) (*mem.Space, *emu.Text, uint32) {
	t.Helper()
	prog, err := asm.Assemble(src, asm.DefaultOptions())
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	space := mem.NewSpace()
	var text []byte
	for _, seg := range prog.Segments {
		space.LoadBytes(seg.Addr, seg.Data)
		if seg.Addr == mem.TextBase {
			text = seg.Data
		}
	}
	decoded, err := emu.DecodeText(text)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return space, decoded, prog.Entry
}

// build builds a system of the given kind over space, with the small cache
// every test here uses.
func build(t *testing.T, kind systems.Kind, space *mem.Space) sim.System {
	t.Helper()
	sys, err := systems.Build(kind, space, systems.Config{CacheSize: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustRun(t *testing.T, src string) emu.Result {
	t.Helper()
	res, err := run(t, src, systems.KindVolatile, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// report stores a0 to RESULT; fin halts.
const epilogue = `
	li   t0, 0x000F0004
	sw   a0, (t0)
	li   t0, 0x000F0000
	sw   zero, (t0)
`

func TestALUSemantics(t *testing.T) {
	// Each case stores one RESULT word; all are checked in order.
	src := `
_start:
	# signed division edge cases
	li   a1, -2147483648
	li   a2, -1
	div  a0, a1, a2            # overflow -> MinInt
` + epilogueKeep + `
	li   a2, 0
	div  a0, a1, a2            # div by zero -> -1
` + epilogueKeep + `
	rem  a0, a1, a2            # rem by zero -> dividend
` + epilogueKeep + `
	li   a1, -2147483648
	li   a2, -1
	rem  a0, a1, a2            # overflow rem -> 0
` + epilogueKeep + `
	li   a1, 7
	li   a2, -3
	div  a0, a1, a2            # trunc toward zero -> -2
` + epilogueKeep + `
	rem  a0, a1, a2            # sign follows dividend -> 1
` + epilogueKeep + `
	li   a1, -5
	li   a2, 3
	mulh a0, a1, a2            # high bits of -15 -> -1
` + epilogueKeep + `
	li   a1, 0x80000000
	li   a2, 2
	mulhu a0, a1, a2           # 0x100000000 >> 32 -> 1
` + epilogueKeep + `
	li   a1, -1
	li   a2, 2
	mulhsu a0, a1, a2          # (-1)*2 = -2 -> high = -1
` + epilogueKeep + `
	li   a1, -8
	srai a0, a1, 1             # arithmetic -> -4
` + epilogueKeep + `
	srli a0, a1, 28            # logical -> 0xF
` + epilogueKeep + `
	li   a1, -1
	li   a2, 1
	slt  a0, a1, a2            # signed: -1 < 1 -> 1
` + epilogueKeep + `
	sltu a0, a1, a2            # unsigned: max < 1 -> 0
` + epilogueKeep + `
	li   a1, 3
	li   a2, 35
	sll  a0, a1, a2            # shift amount mod 32 -> 24
` + epilogueKeep + `
	li   t0, 0x000F0000
	sw   zero, (t0)
`
	res := mustRun(t, src)
	want := []uint32{
		0x80000000, // div overflow
		0xFFFFFFFF, // div by zero
		0x80000000, // rem by zero -> dividend
		0,          // rem overflow
		0xFFFFFFFE,
		1,
		0xFFFFFFFF, // mulh
		1,          // mulhu
		0xFFFFFFFF, // mulhsu
		0xFFFFFFFC,
		0xF,
		1,
		0,
		24,
	}
	if len(res.Results) != len(want) {
		t.Fatalf("got %d results, want %d: %v", len(res.Results), len(want), res.Results)
	}
	for i, w := range want {
		if res.Results[i] != w {
			t.Errorf("case %d = %#x, want %#x", i, res.Results[i], w)
		}
	}
}

const epilogueKeep = `
	li   t0, 0x000F0004
	sw   a0, (t0)
`

func TestLoadSignExtension(t *testing.T) {
	src := `
	.data
val:	.word 0x80FF7F80
	.text
_start:
	la   a3, val
	lb   a0, 0(a3)             # 0x80 -> -128
` + epilogueKeep + `
	lbu  a0, 0(a3)             # 0x80 -> 128
` + epilogueKeep + `
	lh   a0, 0(a3)             # 0x7F80 -> positive
` + epilogueKeep + `
	lh   a0, 2(a3)             # 0x80FF -> negative
` + epilogueKeep + `
	lhu  a0, 2(a3)             # 0x80FF
` + epilogueKeep + `
	li   t0, 0x000F0000
	sw   zero, (t0)
`
	res := mustRun(t, src)
	want := []uint32{0xFFFFFF80, 128, 0x7F80, 0xFFFF80FF, 0x80FF}
	for i, w := range want {
		if res.Results[i] != w {
			t.Errorf("case %d = %#x, want %#x", i, res.Results[i], w)
		}
	}
}

func TestSubWordStores(t *testing.T) {
	src := `
	.data
val:	.word 0xAABBCCDD
	.text
_start:
	la   a3, val
	li   a1, 0x11
	sb   a1, 1(a3)
	li   a1, 0x2233
	sh   a1, 2(a3)
	lw   a0, 0(a3)
` + epilogue
	res := mustRun(t, src)
	if res.Result != 0x223311DD {
		t.Errorf("result = %#x, want 0x223311DD", res.Result)
	}
}

func TestBranchLoop(t *testing.T) {
	src := `
_start:
	li   a0, 0
	li   a1, 1
loop:
	add  a0, a0, a1
	addi a1, a1, 1
	li   t1, 101
	bne  a1, t1, loop
` + epilogue
	res := mustRun(t, src)
	if res.Result != 5050 {
		t.Errorf("sum = %d, want 5050", res.Result)
	}
}

func TestCallReturnAndStack(t *testing.T) {
	src := `
_start:
	li   a0, 5
	call fact
` + epilogue + `
# fact(n): recursive factorial
fact:
	li   t0, 2
	bge  a0, t0, recurse
	li   a0, 1
	ret
recurse:
	addi sp, sp, -8
	sw   ra, 4(sp)
	sw   a0, 0(sp)
	addi a0, a0, -1
	call fact
	lw   t1, 0(sp)
	mul  a0, a0, t1
	lw   ra, 4(sp)
	addi sp, sp, 8
	ret
`
	res := mustRun(t, src)
	if res.Result != 120 {
		t.Errorf("fact(5) = %d, want 120", res.Result)
	}
}

func TestMisalignedAccessErrors(t *testing.T) {
	_, err := run(t, "_start:\n li a1, 0x20002\n lw a0, 1(a1)\n ebreak\n", systems.KindVolatile, emu.Config{})
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Errorf("misaligned load error = %v", err)
	}
	_, err = run(t, "_start:\n li a1, 0x20001\n sh a0, (a1)\n ebreak\n", systems.KindVolatile, emu.Config{})
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Errorf("misaligned store error = %v", err)
	}
}

func TestPCOutOfTextErrors(t *testing.T) {
	_, err := run(t, "_start:\n li t1, 0x50000\n jr t1\n", systems.KindVolatile, emu.Config{})
	if err == nil || !strings.Contains(err.Error(), "outside text") {
		t.Errorf("wild jump error = %v", err)
	}
}

func TestEcallUnsupported(t *testing.T) {
	_, err := run(t, "_start:\n ecall\n", systems.KindVolatile, emu.Config{})
	if err == nil || !strings.Contains(err.Error(), "ecall") {
		t.Errorf("ecall error = %v", err)
	}
}

func TestInstructionLimit(t *testing.T) {
	_, err := run(t, "_start:\n j _start\n", systems.KindVolatile, emu.Config{MaxInstructions: 1000})
	if err == nil || !strings.Contains(err.Error(), "instruction limit") {
		t.Errorf("limit error = %v", err)
	}
}

func TestEbreakHaltsCleanly(t *testing.T) {
	res := mustRun(t, "_start:\n li a0, 3\n ebreak\n")
	if res.ExitCode != 0 {
		t.Errorf("exit code %d", res.ExitCode)
	}
}

func TestExitCode(t *testing.T) {
	res := mustRun(t, "_start:\n li t0, 0x000F0000\n li t1, 42\n sw t1, (t0)\n")
	if res.ExitCode != 42 {
		t.Errorf("exit code = %d, want 42", res.ExitCode)
	}
}

func TestPutchar(t *testing.T) {
	src := `
_start:
	li   t0, 0x000F0008
	li   t1, 'h'
	sw   t1, (t0)
	li   t1, 'i'
	sw   t1, (t0)
	li   t0, 0x000F0000
	sw   zero, (t0)
`
	res := mustRun(t, src)
	if string(res.Output) != "hi" {
		t.Errorf("output = %q, want \"hi\"", res.Output)
	}
}

func TestVolatileCycleAccounting(t *testing.T) {
	// 4 plain instructions (4 cycles) + lw (1 + 2) + sw-to-MMIO exit (1 + 1).
	src := "_start:\n nop\n nop\n nop\n li a1, 0x20000\n lw a0, (a1)\n li t0, 0x000F0000\n sw zero, (t0)\n"
	res := mustRun(t, src)
	// li a1 is 1 word (fits 12 bits? 0x20000 needs lui+addi = 2 instrs).
	// Count instructions precisely instead of hand-counting.
	wantCycles := res.Counters.Instructions + 2 /*lw*/ + 1 /*mmio*/
	if res.Counters.Cycles != wantCycles {
		t.Errorf("cycles = %d, want %d (instr=%d)", res.Counters.Cycles, wantCycles, res.Counters.Instructions)
	}
}

func TestPowerFailureAndRecovery(t *testing.T) {
	// A long loop accumulating into NVM memory; periodic failures with
	// forced checkpoints must still produce the correct sum.
	src := `
	.data
acc:	.word 0
	.text
_start:
	la   a3, acc
	li   a1, 1
loop:
	lw   a0, (a3)
	add  a0, a0, a1
	sw   a0, (a3)
	addi a1, a1, 1
	li   t1, 1001
	bne  a1, t1, loop
	lw   a0, (a3)
` + epilogue
	res, err := run(t, src, systems.KindNACHO, emu.Config{
		Schedule:               power.Periodic{Period: 2000},
		ForcedCheckpointPeriod: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != 500500 {
		t.Errorf("sum = %d, want 500500", res.Result)
	}
	if res.Counters.PowerFailures == 0 {
		t.Error("no power failures occurred")
	}
	if res.Counters.ForcedCkpts == 0 {
		t.Error("no forced checkpoints created")
	}
	if res.Counters.RestoreCycles == 0 {
		t.Error("restore cycles not accounted")
	}
}

func TestColdBootWithoutCheckpointRestartsAtEntry(t *testing.T) {
	// The volatile system has no checkpoints: after a failure, Restore
	// reports none and the machine restarts from the entry point. With one
	// failure the program still completes (it re-runs from scratch).
	src := "_start:\n li a0, 9\n" + epilogue
	sched := power.NewUniform(3, 3, 1) // single early failure window
	res, err := run(t, src, systems.KindVolatile, emu.Config{Schedule: oneShot{sched}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != 9 {
		t.Errorf("result = %d, want 9", res.Result)
	}
	if res.Counters.PowerFailures != 1 {
		t.Errorf("failures = %d, want 1", res.Counters.PowerFailures)
	}
}

// oneShot fails exactly once, at the wrapped schedule's first instant.
type oneShot struct{ inner power.Schedule }

func (o oneShot) NextFailureAfter(cycle uint64) uint64 {
	first := o.inner.NextFailureAfter(0)
	if cycle < first {
		return first
	}
	return power.NoFailure
}

func (o oneShot) Key() string { return "oneshot(" + o.inner.Key() + ")" }

func (o oneShot) Clone() power.Schedule { return oneShot{o.inner.Clone()} }

func TestStackOverflowDetected(t *testing.T) {
	_, err := run(t, "_start:\n li sp, 0x20000\n nop\n ebreak\n", systems.KindVolatile, emu.Config{})
	if err == nil || !strings.Contains(err.Error(), "stack pointer") {
		t.Errorf("stack fault not detected: %v", err)
	}
}

func TestJALRClearsLowBit(t *testing.T) {
	// jalr must clear bit 0 of the computed target (RISC-V spec).
	src := `
_start:
	la   t1, target
	addi t1, t1, 1             # deliberately misaligned by one
	jalr ra, 0(t1)
	ebreak
target:
	li   a0, 99
` + epilogue
	res := mustRun(t, src)
	if res.Result != 99 {
		t.Errorf("result = %d, want 99", res.Result)
	}
}

func TestX0WritesIgnored(t *testing.T) {
	src := `
_start:
	li   t1, 123
	add  zero, t1, t1          # write to x0 discarded
	mv   a0, zero
` + epilogue
	res := mustRun(t, src)
	if res.Result != 0 {
		t.Errorf("x0 = %d after write, want 0", res.Result)
	}
}

func TestAUIPCIsPCRelative(t *testing.T) {
	src := `
_start:
	auipc a0, 0                # a0 = &_start
` + epilogue
	res := mustRun(t, src)
	if res.Result != mem.TextBase {
		t.Errorf("auipc = %#x, want %#x", res.Result, uint32(mem.TextBase))
	}
}

func TestFenceIsNop(t *testing.T) {
	res := mustRun(t, "_start:\n li a0, 5\n fence\n"+epilogue)
	if res.Result != 5 {
		t.Errorf("result %d", res.Result)
	}
}

func TestMMIOLoadReturnsZero(t *testing.T) {
	src := `
_start:
	li   t1, 0x000F0004
	lw   a0, (t1)
` + epilogue
	res := mustRun(t, src)
	if res.Result != 0 {
		t.Errorf("mmio load = %d, want 0", res.Result)
	}
}

func TestInstructionMixCounters(t *testing.T) {
	src := `
	.data
v:	.word 3
	.text
_start:
	la   a1, v
	lw   a0, (a1)
	sw   a0, (a1)
	lb   t0, (a1)
	sb   t0, (a1)
` + epilogue
	res := mustRun(t, src)
	if res.Counters.Loads != 2 || res.Counters.Stores != 2 {
		// MMIO stores bypass the memory system but still retire as stores.
		t.Logf("loads=%d stores=%d", res.Counters.Loads, res.Counters.Stores)
	}
	if res.Counters.Loads != 2 {
		t.Errorf("loads = %d, want 2", res.Counters.Loads)
	}
	if res.Counters.Stores != 4 { // 2 data + RESULT + EXIT
		t.Errorf("stores = %d, want 4", res.Counters.Stores)
	}
}
