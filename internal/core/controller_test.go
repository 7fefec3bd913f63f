package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nacho/internal/cache"
	"nacho/internal/checkpoint"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
	"nacho/internal/verify"
)

const (
	testStackTop = 0x000A_0000
	testCkptBase = 0x000E_0000
)

type fakeRegs struct{ sp uint32 }

func (f *fakeRegs) RegSnapshot() sim.Snapshot {
	var s sim.Snapshot
	s.Regs[1] = f.sp // x2
	return s
}

// rig builds a controller over fresh NVM with a test clock.
type rig struct {
	k    *Controller
	clk  *sim.TestClock
	nvm  *mem.NVM
	c    metrics.Counters
	regs fakeRegs
}

func newRig(t *testing.T, cacheSize, ways int, war WARMode, stack bool) *rig {
	t.Helper()
	r := &rig{clk: &sim.TestClock{}, regs: fakeRegs{sp: testStackTop}}
	r.nvm = mem.NewNVM(mem.NewSpace(), mem.DefaultCostModel())
	k, err := New("test", r.nvm, Options{
		CacheSize: cacheSize, Ways: ways, WARMode: war, StackTracking: stack,
		StackTop: testStackTop, CheckpointBase: testCkptBase, Cost: mem.DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.k = k
	r.attach(nil)
	return r
}

// attach wires the controller to the rig's clock, registers and counters,
// with p (nil for none) observing its events, and seeds the boot
// checkpoint.
func (r *rig) attach(p sim.Probe) { r.k.Attach(r.clk, &r.regs, &r.c, p) }

// line returns the cache line currently holding addr, or nil.
func (r *rig) line(addr uint32) *cache.Line { return r.k.Cache().Probe(addr) }

// bits returns the Figure 4 state number pw*4 + rd*2 + d of addr's line.
func (r *rig) bits(addr uint32) int {
	l := r.line(addr)
	if l == nil {
		return -1
	}
	n := 0
	if l.PW {
		n += 4
	}
	if l.RD {
		n += 2
	}
	if l.Dirty {
		n++
	}
	return n
}

// TestFigure4BitProtocol walks the paper's Figure 4 sequences on a
// direct-mapped single-set cache and checks each resulting pw/rd/d pattern.
func TestFigure4BitProtocol(t *testing.T) {
	// Two addresses mapping to the same (only) line of a 1-way 4 B cache.
	const a, b = 0x1000, 0x1004

	t.Run("read-dominated (2)", func(t *testing.T) {
		r := newRig(t, 4, 1, WARCacheBits, false)
		r.k.Load(a, 4)
		if got := r.bits(a); got != 2 {
			t.Errorf("after R(a): state %d, want 2", got)
		}
	})
	t.Run("write-dominated (1)", func(t *testing.T) {
		r := newRig(t, 4, 1, WARCacheBits, false)
		r.k.Store(a, 4, 1)
		if got := r.bits(a); got != 1 {
			t.Errorf("after W(a): state %d, want 1", got)
		}
	})
	t.Run("read-dominated with WAR (3)", func(t *testing.T) {
		r := newRig(t, 4, 1, WARCacheBits, false)
		r.k.Load(a, 4)
		r.k.Store(a, 4, 1)
		if got := r.bits(a); got != 3 {
			t.Errorf("after R(a) W(a): state %d, want 3", got)
		}
	})
	t.Run("pw & write-dominated (5)", func(t *testing.T) {
		r := newRig(t, 4, 1, WARCacheBits, false)
		r.k.Load(a, 4)     // line read-dominated
		r.k.Store(b, 4, 1) // replaces it: write-dominated, pw set last
		if got := r.bits(b); got != 5 {
			t.Errorf("after R(a) W(b): state %d, want 5", got)
		}
	})
	t.Run("pw & read-dominated clean (6)", func(t *testing.T) {
		r := newRig(t, 4, 1, WARCacheBits, false)
		r.k.Load(a, 4)
		r.k.Load(b, 4) // replaces read-dominated entry with a read
		if got := r.bits(b); got != 6 {
			t.Errorf("after R(a) R(b): state %d, want 6", got)
		}
	})
	t.Run("pw & read-dominated with WAR (7)", func(t *testing.T) {
		// The hash-collision scenario of Section 4.2.2: m read, evicted by a
		// write to another address, then m written — pw forces the write to
		// be marked read-dominated, catching the true WAR.
		r := newRig(t, 4, 1, WARCacheBits, false)
		r.k.Load(a, 4)     // m read
		r.k.Store(b, 4, 1) // evicts m; line pw=1, write-dominated
		r.k.Store(a, 4, 2) // write to m: pw forces rd
		if got := r.bits(a); got != 7 {
			t.Errorf("after R(a) W(b) W(a): state %d, want 7", got)
		}
	})
}

// TestInvalidState4Unreachable checks Figure 4's note that configuration 4
// (pw set, rd and dirty clear) can never occur, by exploring random access
// streams over a tiny cache.
func TestInvalidState4Unreachable(t *testing.T) {
	r := newRig(t, 8, 2, WARCacheBits, false)
	rng := rand.New(rand.NewSource(99))
	seen := map[int]bool{}
	for i := 0; i < 100000; i++ {
		addr := uint32(0x1000 + 4*rng.Intn(8))
		size := []int{1, 2, 4}[rng.Intn(3)]
		addr &^= uint32(size - 1)
		if rng.Intn(2) == 0 {
			r.k.Load(addr, size)
		} else {
			r.k.Store(addr, size, rng.Uint32())
		}
		for _, l := range r.k.Cache().Lines() {
			if !l.Valid {
				continue
			}
			n := 0
			if l.PW {
				n += 4
			}
			if l.RD {
				n += 2
			}
			if l.Dirty {
				n++
			}
			seen[n] = true
			if n == 4 {
				t.Fatalf("step %d: reached invalid state 4 (pw only)", i)
			}
		}
	}
	for _, want := range []int{0, 1, 2, 3, 5, 6, 7} {
		if !seen[want] && want != 0 {
			t.Logf("note: state %d not reached by this stream", want)
		}
	}
}

func TestSubWordWriteMarksReadDominated(t *testing.T) {
	r := newRig(t, 4, 1, WARCacheBits, false)
	r.k.Store(0x1000, 1, 0xAB) // byte write fills from NVM -> read-dominated
	if got := r.bits(0x1000); got != 3 {
		t.Errorf("after byte write miss: state %d, want 3 (rd+dirty)", got)
	}
	if r.c.NVMReads != 1 {
		t.Errorf("sub-word write miss did not fill from NVM: reads=%d", r.c.NVMReads)
	}
}

func TestSafeEvictionNoCheckpoint(t *testing.T) {
	r := newRig(t, 4, 1, WARCacheBits, false)
	r.k.Store(0x1000, 4, 7) // write-dominated dirty
	r.k.Store(0x1004, 4, 8) // evicts it — safe
	if r.c.Checkpoints != 0 {
		t.Errorf("safe eviction created %d checkpoints", r.c.Checkpoints)
	}
	if r.c.SafeEvictions != 1 {
		t.Errorf("SafeEvictions = %d, want 1", r.c.SafeEvictions)
	}
	if got := r.nvm.ReadRaw(0x1000, 4); got != 7 {
		t.Errorf("evicted value not in NVM: %#x", got)
	}
}

func TestUnsafeEvictionCheckpointsAndFlushes(t *testing.T) {
	r := newRig(t, 8, 1, WARCacheBits, false) // 2 sets, direct mapped
	r.k.Load(0x1000, 4)
	r.k.Store(0x1000, 4, 7) // read-dominated dirty (set 0)
	r.k.Store(0x1004, 4, 9) // write-dominated dirty (set 1)
	r.k.Store(0x1008, 4, 5) // set 0 again: evicts the rd line -> checkpoint
	if r.c.Checkpoints != 1 || r.c.UnsafeEvictions != 1 {
		t.Fatalf("checkpoints=%d unsafe=%d, want 1/1", r.c.Checkpoints, r.c.UnsafeEvictions)
	}
	// The checkpoint flushed BOTH dirty lines to their home addresses.
	if r.nvm.ReadRaw(0x1000, 4) != 7 || r.nvm.ReadRaw(0x1004, 4) != 9 {
		t.Error("checkpoint did not flush all dirty lines")
	}
	// All WAR bits cleared; data retained in cache.
	l := r.line(0x1004)
	if l == nil || l.Dirty || l.RD || l.PW {
		t.Errorf("bits not cleared after checkpoint: %+v", l)
	}
	if l.Data != 9 {
		t.Error("cache data lost at checkpoint")
	}
}

func TestFirstHitAfterCheckpointReclassifies(t *testing.T) {
	r := newRig(t, 4, 1, WARCacheBits, false)
	r.k.Store(0x1000, 4, 7)
	r.k.ForceCheckpoint()
	if got := r.bits(0x1000); got != 0 {
		t.Fatalf("after checkpoint: state %d, want 0", got)
	}
	// First hit is a read: line must become read-dominated again.
	r.k.Load(0x1000, 4)
	if got := r.bits(0x1000); got != 2 {
		t.Errorf("first hit after checkpoint: state %d, want 2", got)
	}
}

func TestNaiveModeCheckpointsEveryDirtyEviction(t *testing.T) {
	r := newRig(t, 4, 1, WARNone, false)
	r.k.Store(0x1000, 4, 7)
	r.k.Store(0x1004, 4, 8) // dirty eviction -> checkpoint even though safe
	if r.c.Checkpoints != 1 {
		t.Errorf("naive mode checkpoints = %d, want 1", r.c.Checkpoints)
	}
}

func TestStackTrackingDropsDeadFrames(t *testing.T) {
	r := newRig(t, 4, 1, WARCacheBits, true)
	frame := uint32(testStackTop - 16)
	r.k.NotifySP(frame)         // enter function
	r.k.Store(frame, 4, 0xDEAD) // dirty stack line
	r.k.NotifySP(testStackTop)  // return: frame dead
	r.k.Store(0x2000&^3, 4, 1)  // conflicting store evicts the stack line
	if r.c.DroppedStackLines != 1 {
		t.Fatalf("DroppedStackLines = %d, want 1", r.c.DroppedStackLines)
	}
	if r.c.Checkpoints != 0 || r.c.SafeEvictions != 0 {
		t.Error("dead stack line should be dropped, not evicted or checkpointed")
	}
	if r.nvm.ReadRaw(frame, 4) == 0xDEAD {
		t.Error("dead stack line written to NVM")
	}
}

func TestStackTrackingSpMinResetsAtCheckpoint(t *testing.T) {
	r := newRig(t, 8, 1, WARCacheBits, true)
	deep := uint32(testStackTop - 64)
	r.k.NotifySP(deep)
	r.k.NotifySP(testStackTop) // spMin stays at deep
	r.k.ForceCheckpoint()      // spMin resets to current sp
	// A dirty line in the previously-dead region must now be preserved on
	// eviction (it predates... it belongs to the new interval).
	r.k.NotifySP(deep)
	r.k.Store(deep, 4, 0xFEED)
	r.k.NotifySP(testStackTop)
	// Dead again within THIS interval: spMin == deep, so it still drops.
	r.k.Store(deep+4, 4, 1) // same set? force eviction via conflict:
	r.k.Store(deep+32, 4, 2)
	_ = r
}

func TestLiveStackLineNotDropped(t *testing.T) {
	r := newRig(t, 4, 1, WARCacheBits, true)
	frame := uint32(testStackTop - 16)
	r.k.NotifySP(frame)
	r.k.Store(frame, 4, 0xBEEF) // live frame slot
	r.k.Store(0x2000&^3, 4, 1)  // evicts it while still live
	if r.c.DroppedStackLines != 0 {
		t.Fatal("live stack line dropped")
	}
	if r.nvm.ReadRaw(frame, 4) != 0xBEEF {
		t.Error("live stack line not written back")
	}
}

func TestPowerFailureInvalidatesCache(t *testing.T) {
	r := newRig(t, 8, 2, WARCacheBits, true)
	r.k.Store(0x1000, 4, 7)
	r.k.ForceCheckpoint()
	r.k.PowerFailure()
	if r.line(0x1000) != nil {
		t.Error("cache contents survived power failure")
	}
	snap, ok := r.k.Restore()
	if !ok {
		t.Fatal("no checkpoint to restore")
	}
	if snap.Regs[1] != testStackTop {
		t.Errorf("restored sp = %#x", snap.Regs[1])
	}
	if r.nvm.ReadRaw(0x1000, 4) != 7 {
		t.Error("checkpointed data lost")
	}
}

func TestHitCostAndMissCost(t *testing.T) {
	r := newRig(t, 4, 1, WARCacheBits, false)
	r.k.Load(0x1000, 4) // miss: 6 (fill) + 2 (hit path)
	if r.clk.Cycle != 8 {
		t.Errorf("read miss cost %d cycles, want 8", r.clk.Cycle)
	}
	r.k.Load(0x1000, 4) // hit: 2
	if r.clk.Cycle != 10 {
		t.Errorf("hit cost wrong: total %d, want 10", r.clk.Cycle)
	}
	r.k.Store(0x1000, 4, 1) // hit: 2
	if r.clk.Cycle != 12 {
		t.Errorf("store hit cost wrong: total %d, want 12", r.clk.Cycle)
	}
}

// TestNoFalseNegativesRandomStreams is the paper's core safety claim
// (Section 3.2): NACHO's cache-bit detection "can never contain false
// negatives". Random access streams (with interleaved checkpoints and stack
// movement) must never produce a physical write-back of read-dominated data
// — checked by the exact byte-granular verifier. The same streams through a
// controller with inverted write-back safety (Options.TestInvertPW) must
// trip the WAR check on every seed, so a stream that stopped feeding the
// verifier fails here instead of passing vacuously.
func TestNoFalseNegativesRandomStreams(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		if err := randomStream(t, seed, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var v verify.Violation
		if err := randomStream(t, seed, true); !errors.As(err, &v) || v.Kind != verify.WARViolation {
			t.Errorf("seed %d with inverted pw bits: got %v, want a war-violation", seed, err)
		}
	}
}

// randomStream drives seed's random access stream through a fresh
// controller, with invertPW setting Options.TestInvertPW, and returns the
// exact verifier's error. The verifier observes the controller's
// write-backs and commits as its probe and, as emu.Machine hands them over,
// each load's returned value and each store once the controller has served
// it.
func randomStream(t *testing.T, seed int64, invertPW bool) error {
	rng := rand.New(rand.NewSource(seed))
	cacheSize := []int{8, 16, 32, 64}[rng.Intn(4)]
	ways := []int{1, 2, 4}[rng.Intn(3)]
	if cacheSize/4 < ways {
		ways = 1
	}
	r := newRig(t, cacheSize, ways, WARCacheBits, rng.Intn(2) == 0)
	r.k.opts.TestInvertPW = invertPW
	ver := verify.New(r.nvm.Space(), verify.Config{RollbackOnFailure: true, CheckWAR: true})
	// Attaching again before the stream starts rewrites the same boot
	// checkpoint.
	r.attach(ver)

	// Stack discipline: the paper's stack-tracking optimization assumes a
	// freshly (re)allocated slot is always written before it is read
	// (Section 3.3); conforming programs obey it, so the random stream does
	// too via the initialized-slot set.
	sp := uint32(testStackTop)
	stackInit := map[uint32]bool{}
	for i := 0; i < 30000; i++ {
		switch rng.Intn(20) {
		case 0: // checkpoint
			r.k.ForceCheckpoint()
		case 1: // push a frame
			if sp > testStackTop-256 {
				sp -= 16
				for a := sp; a < sp+16; a += 4 {
					delete(stackInit, a)
				}
				r.k.NotifySP(sp)
			}
		case 2: // pop a frame
			if sp < testStackTop {
				sp += 16
				r.k.NotifySP(sp)
			}
		default:
			size := []int{1, 2, 4}[rng.Intn(3)]
			isRead := rng.Intn(2) == 0
			var addr uint32
			if rng.Intn(3) == 0 && sp < testStackTop {
				// Live stack access: word-granular, write-before-read.
				size = 4
				addr = sp + 4*uint32(rng.Intn(4))
				if isRead && !stackInit[addr] {
					isRead = false
				}
				if !isRead {
					stackInit[addr] = true
				}
			} else {
				addr = 0x1000 + uint32(rng.Intn(64))
				addr &^= uint32(size - 1)
			}
			if isRead {
				ver.CPURead(addr, size, r.k.Load(addr, size))
			} else {
				v := rng.Uint32()
				switch size {
				case 1:
					v &= 0xFF
				case 2:
					v &= 0xFFFF
				}
				r.k.Store(addr, size, v)
				ver.CPUWrite(addr, size, v)
			}
		}
	}
	if err := ver.Err(); err != nil {
		return fmt.Errorf("%dB/%d-way: %w", cacheSize, ways, err)
	}
	return nil
}

func TestWARModeStrings(t *testing.T) {
	if WARNone.String() != "none" || WARCacheBits.String() != "cache-bits" || WARExact.String() != "exact" {
		t.Error("WARMode strings wrong")
	}
	if WARMode(99).String() != "unknown" {
		t.Error("unknown mode string wrong")
	}
}

func TestBadGeometryRejected(t *testing.T) {
	nvm := mem.NewNVM(mem.NewSpace(), mem.DefaultCostModel())
	if _, err := New("bad", nvm, Options{CacheSize: 100, Ways: 3}); err == nil {
		t.Error("invalid geometry accepted")
	}
}

// TestEqualState: two replicas of one controller compare equal, also at
// different clocks, and perturbing any single keyed field makes them
// unequal. (The checkpoint store's own test checks that its last commit
// instant, which only feeds counters, is not state.)
func TestEqualState(t *testing.T) {
	r := newRig(t, 64, 2, WARExact, true)
	r.k.Store(0x100, 4, 1)
	r.k.Load(0x104, 4)
	r.k.Store(0x200, 4, 2)
	replica := func(now uint64) *Controller {
		return r.k.Fork(&sim.TestClock{Cycle: now}, &r.regs, &metrics.Counters{}).(*Controller)
	}
	if !replica(r.clk.Cycle).EqualState(replica(r.clk.Cycle + 1000)) {
		t.Fatal("replicas at different clocks compare unequal")
	}
	for _, p := range []struct {
		name string
		f    func(k *Controller)
	}{
		{"NVM word", func(k *Controller) { k.nvm.WriteRaw(0x300, 4, 9) }},
		{"valid cache line", func(k *Controller) { k.cache.Probe(0x100).PW = true }},
		{"LRU stamp", func(k *Controller) { k.cache.Touch(k.cache.Probe(0x100)) }},
		{"tracker entry", func(k *Controller) { k.tracker.ObserveRead(0x400, 4) }},
		{"checkpoint seq", func(k *Controller) { k.ckpt = checkpoint.NewStore(k.nvm, testCkptBase, k.cache.NumLines()) }},
		{"sp", func(k *Controller) { k.sp -= 4 }},
		{"spMin", func(k *Controller) { k.spMin -= 4 }},
		{"dirty count", func(k *Controller) { k.dirtyCount++ }},
	} {
		a, b := replica(r.clk.Cycle), replica(r.clk.Cycle)
		p.f(b)
		if a.EqualState(b) || b.EqualState(a) {
			t.Errorf("%s: perturbed replica compares equal", p.name)
		}
	}
}
