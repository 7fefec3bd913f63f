package systems

import (
	"testing"

	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
)

type fakeRegs struct{}

func (fakeRegs) RegSnapshot() sim.Snapshot {
	var s sim.Snapshot
	s.Regs[1] = mem.StackTop
	return s
}

func testConfig() Config {
	return Config{CacheSize: 64, Ways: 2}
}

// build constructs and attaches a system over fresh NVM.
func build(t *testing.T, kind Kind) (sim.System, *sim.TestClock, *metrics.Counters) {
	t.Helper()
	clk := &sim.TestClock{}
	c := &metrics.Counters{}
	sys, err := Build(kind, mem.NewSpace(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Attach(clk, fakeRegs{}, c, nil)
	return sys, clk, c
}

func TestBuildAllKinds(t *testing.T) {
	for _, kind := range AllKinds() {
		sys, err := Build(kind, mem.NewSpace(), testConfig())
		if err != nil {
			t.Errorf("Build(%s): %v", kind, err)
			continue
		}
		if sys.Name() != string(kind) && kind != KindVolatile {
			// Volatile's name matches too; this is a sanity check only.
			t.Errorf("Build(%s).Name() = %s", kind, sys.Name())
		}
	}
	if _, err := Build("bogus", mem.NewSpace(), testConfig()); err == nil {
		t.Error("unknown kind accepted")
	}
	cfg := testConfig()
	cfg.Ways = 4
	if _, err := Build(KindPROWL, mem.NewSpace(), cfg); err == nil {
		t.Error("prowl accepted 4 ways")
	}
}

func TestVolatileCosts(t *testing.T) {
	sys, clk, _ := build(t, KindVolatile)
	sys.Store(0x100, 4, 7)
	if clk.Cycle != 2 {
		t.Errorf("store cost %d, want 2", clk.Cycle)
	}
	if got := sys.Load(0x100, 4); got != 7 {
		t.Errorf("load = %d, want 7", got)
	}
	if clk.Cycle != 4 {
		t.Errorf("load cost: total %d, want 4", clk.Cycle)
	}
	if _, ok := sys.Restore(); ok {
		t.Error("volatile system restored a checkpoint")
	}
}

func TestClankWARCheckpointing(t *testing.T) {
	sys, _, c := build(t, KindClank)
	sys.Store(0x100, 4, 1) // write-first: safe
	if c.Checkpoints != 0 {
		t.Fatal("checkpoint on write-dominated store")
	}
	sys.Load(0x200, 4)
	sys.Store(0x200, 4, 2) // read-then-write: WAR
	if c.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", c.Checkpoints)
	}
	// After the checkpoint the same location becomes write-dominated.
	sys.Store(0x200, 4, 3)
	if c.Checkpoints != 1 {
		t.Error("extra checkpoint on now write-dominated store")
	}
	// Byte granularity: writing a sibling byte of a read word is a WAR.
	sys.Load(0x300, 4)
	sys.Store(0x301, 1, 9)
	if c.Checkpoints != 2 {
		t.Errorf("byte-granular WAR missed: checkpoints = %d", c.Checkpoints)
	}
}

func TestClankEveryAccessHitsNVM(t *testing.T) {
	sys, clk, c := build(t, KindClank)
	sys.Load(0x100, 4)
	sys.Load(0x100, 4) // no cache: second read also pays NVM latency
	if clk.Cycle != 12 {
		t.Errorf("two loads cost %d, want 12", clk.Cycle)
	}
	if c.NVMReads != 2 {
		t.Errorf("NVMReads = %d, want 2", c.NVMReads)
	}
}

func TestPROWLPrefersCleanVictim(t *testing.T) {
	sys, _, c := build(t, KindPROWL)
	p := sys.(*PROWL)
	// Occupy both candidate slots of address 0x100's set: one dirty, one
	// clean, then force a miss that conflicts with both.
	p.Store(0x100, 4, 1) // dirty in one way
	// Find an address hashing to the same slots. With 8 sets (64B/2-way),
	// addresses 0x100 and 0x100+8*4 share way-0 slots.
	alt := uint32(0x100 + 8*4)
	p.Load(alt, 4) // clean line in the other candidate slot (or same set)
	ckptsBefore := c.Checkpoints
	p.Load(alt+8*4, 4) // force a replacement decision
	// The clean line must have been evicted rather than the dirty one, so no
	// checkpoint was needed.
	if c.Checkpoints != ckptsBefore {
		t.Errorf("PROWL checkpointed instead of evicting a clean line")
	}
	// Hammer one way-0 set with dirty stores: the skewed way-1 slots fill
	// up too, eventually forcing a dirty eviction and thus a checkpoint.
	sys2, _, c2 := build(t, KindPROWL)
	p2 := sys2.(*PROWL)
	for i := uint32(0); i < 64 && c2.Checkpoints == 0; i++ {
		p2.Store(0x100+32*i, 4, i)
	}
	if c2.Checkpoints == 0 {
		t.Error("PROWL never checkpointed with all-dirty candidates")
	}
}

func TestReplayCacheRegionsAndJIT(t *testing.T) {
	sys, _, c := build(t, KindReplayCache)
	r := sys.(*ReplayCache)
	r.Store(0x100, 4, 1)
	if c.Regions != 0 {
		t.Fatal("region ended without a WAR")
	}
	r.Load(0x200, 4)
	r.Store(0x200, 4, 2) // WAR: ends the region first
	if c.Regions != 1 {
		t.Fatalf("regions = %d, want 1", c.Regions)
	}
	// Region-end persisted the dirty line from the previous region.
	if r.Mem().ReadRaw(0x100, 4) != 1 {
		t.Error("region end did not persist prior stores")
	}
	if c.Checkpoints != 0 {
		t.Error("replaycache checkpointed without power failure")
	}

	// JIT path: a power failure flushes dirty lines and saves registers.
	r.Store(0x300, 4, 7)
	r.PowerFailure()
	if r.Mem().ReadRaw(0x300, 4) != 7 {
		t.Error("JIT flush lost a dirty line")
	}
	if _, ok := r.Restore(); !ok {
		t.Error("no JIT checkpoint to restore")
	}
	if c.Checkpoints != 1 {
		t.Errorf("JIT checkpoints = %d, want 1", c.Checkpoints)
	}
}

func TestReplayCacheRegionCap(t *testing.T) {
	sys, clk, c := build(t, KindReplayCache)
	r := sys.(*ReplayCache)
	// Stores without WARs, spread past the region cap, must still cut
	// regions (the compiler-conservatism bound).
	for i := uint32(0); i < 64; i++ {
		r.Store(0x100+4*(i%4), 4, i)
		clk.Advance(50)
	}
	if c.Regions == 0 {
		t.Error("region cap never fired")
	}
}

func TestOracleMatchesExactSemantics(t *testing.T) {
	sys, _, c := build(t, KindOracleNACHO)
	// Read a, evict it with enough conflicting reads, then write a: the
	// eventual write-back of a must be classified unsafe (checkpoint), since
	// exact tracking knows a was read first.
	sys.Load(0x100, 4)
	sys.Store(0x100, 4, 9) // hit: read-dominated word now dirty
	// Conflict both ways of 0x100's set (8 sets): +32B strides.
	sys.Store(0x100+32, 4, 1)
	sys.Store(0x100+64, 4, 2) // evicts the read-dominated dirty line
	if c.Checkpoints != 1 {
		t.Errorf("oracle checkpoints = %d, want 1", c.Checkpoints)
	}
}

func TestVerifyConfigFor(t *testing.T) {
	if !VerifyConfigFor(KindNACHO).Rollback {
		t.Error("nacho verify config wrong")
	}
	if VerifyConfigFor(KindReplayCache).Rollback {
		t.Error("replaycache verify config wrong")
	}
	if VerifyConfigFor(KindVolatile).Rollback {
		t.Error("volatile verify config wrong")
	}
}

func TestWriteThroughSemantics(t *testing.T) {
	sys, clk, c := build(t, KindWriteThrough)
	w := sys.(*WriteThrough)

	// Store writes through to NVM immediately.
	w.Store(0x100, 4, 7)
	if w.Mem().ReadRaw(0x100, 4) != 7 {
		t.Fatal("store did not reach NVM")
	}
	if c.NVMWrites != 1 {
		t.Errorf("NVMWrites = %d, want 1", c.NVMWrites)
	}
	// Read misses fill the cache; repeats hit without NVM traffic.
	w.Load(0x100, 4)
	readsAfterFill := c.NVMReads
	cyc := clk.Cycle
	if got := w.Load(0x100, 4); got != 7 {
		t.Fatalf("cached load = %d", got)
	}
	if c.NVMReads != readsAfterFill {
		t.Error("cache hit still accessed NVM")
	}
	if clk.Cycle-cyc != 2 {
		t.Errorf("hit cost = %d cycles, want 2", clk.Cycle-cyc)
	}
	// Store to a cached line keeps the cache coherent.
	w.Store(0x100, 4, 9)
	if got := w.Load(0x100, 4); got != 9 {
		t.Errorf("cache stale after write-through: %d", got)
	}

	// WAR: read-dominated location triggers a register checkpoint.
	w.Load(0x200, 4)
	ckpts := c.Checkpoints
	w.Store(0x200, 4, 1)
	if c.Checkpoints != ckpts+1 {
		t.Error("write-through missed the WAR checkpoint")
	}

	// Power failure loses only locality.
	w.PowerFailure()
	if got := w.Load(0x100, 4); got != 9 {
		t.Errorf("data lost across power failure: %d", got)
	}
	if _, ok := w.Restore(); !ok {
		t.Error("no checkpoint to restore")
	}
}

func TestWriteThroughLinesNeverDirty(t *testing.T) {
	sys, _, _ := build(t, KindWriteThrough)
	w := sys.(*WriteThrough)
	for i := uint32(0); i < 64; i++ {
		w.Store(0x100+4*i, 4, i)
		w.Load(0x100+4*i, 4)
	}
	for _, l := range w.cache.Lines() {
		if l.Dirty {
			t.Fatal("write-through produced a dirty line")
		}
	}
}

func TestPROWLRelocationAvoidsCheckpoint(t *testing.T) {
	sys, _, c := build(t, KindPROWL)
	p := sys.(*PROWL)
	// Dirty a line in way 0, then fill its alternate (way 1) slot's
	// conflicting address so relocation is exercised when a second dirty
	// store conflicts in way 0.
	p.Store(0x100, 4, 1)      // dirty line; way-0 index of 0x100
	alt := uint32(0x100 + 32) // same way-0 set (8 sets * 4 B)
	p.Store(alt, 4, 2)        // may share way-0 slot: relocation or free slot
	p.Store(alt+32, 4, 3)     // third conflicting dirty store
	// With relocation, three conflicting dirty lines fit before any
	// checkpoint (two way-0 aliases relocated into distinct way-1 slots).
	if c.Checkpoints != 0 {
		t.Errorf("relocation failed to absorb conflicts: %d checkpoints", c.Checkpoints)
	}
	// All three values must still be readable.
	for i, a := range []uint32{0x100, alt, alt + 32} {
		if got := p.Load(a, 4); got != uint32(i+1) {
			t.Errorf("Load(%#x) = %d, want %d", a, got, i+1)
		}
	}
}
