package core

import (
	"math/rand"
	"testing"

	"nacho/internal/mem"
	"nacho/internal/sim"
	"nacho/internal/verify"
)

// newRigThreshold is newRig with the adaptive dirty-threshold policy armed.
func newRigThreshold(t *testing.T, cacheSize, ways, threshold int) *rig {
	t.Helper()
	r := &rig{clk: &sim.TestClock{}, regs: fakeRegs{sp: testStackTop}}
	r.nvm = mem.NewNVM(mem.NewSpace(), mem.DefaultCostModel())
	k, err := New("test", r.nvm, Options{
		CacheSize: cacheSize, Ways: ways, WARMode: WARCacheBits,
		StackTop: testStackTop, CheckpointBase: testCkptBase,
		Cost: mem.DefaultCostModel(), DirtyThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Attach(r.clk, &r.regs, &r.c)
	r.k = k
	return r
}

// memoDropped reports whether the controller's per-direction port memo is
// empty.
func (r *rig) memoDropped() bool { return r.k.portLoadLine == nil && r.k.portStoreLine == nil }

func TestFastPortGatedByProbe(t *testing.T) {
	r := newRig(t, 32, 2, WARCacheBits, false)
	port, ok := r.k.FastPort()
	if !ok {
		t.Fatal("unprobed controller refused its fast port")
	}
	const addr = 0x1000
	r.k.Store(addr, 4, 1) // dirty line in cache: the port serves it
	if _, hit := port.LoadHit(addr, 4); !hit || r.memoDropped() {
		t.Fatal("port hit did not memoize its line")
	}
	ver := verify.New(r.nvm.Space(), verify.Config{})
	r.k.AttachProbe(ver)
	if _, ok := r.k.FastPort(); ok {
		t.Fatal("probed controller offered a fast port; the probe stream would miss events")
	}
	if !r.memoDropped() {
		t.Fatal("AttachProbe did not drop the port memo")
	}
	r.k.AttachProbe(nil)
	if _, ok := r.k.FastPort(); !ok {
		t.Fatal("detaching the probe did not restore the fast port")
	}
}

// TestFastPortEpochInvalidation is the property test behind the sim.FastPort
// contract: across random interleavings of full-path accesses, port-served
// hits, checkpoints, and power cycles, (1) NACHO's per-direction port memo is
// dropped by every invalidating event — miss/replacement, checkpoint, power
// failure, restore — and (2) a served hit is never stale: its value always
// agrees with a byte-granular shadow of the architectural memory state.
func TestFastPortEpochInvalidation(t *testing.T) {
	for _, war := range []WARMode{WARNone, WARCacheBits, WARExact} {
		for seed := int64(0); seed < 6; seed++ {
			r := newRig(t, 32, 2, war, false)
			port, ok := r.k.FastPort()
			if !ok {
				t.Fatal("fast port refused")
			}
			rng := rand.New(rand.NewSource(seed))
			shadow := map[uint32]byte{}
			readShadow := func(addr uint32, size int) uint32 {
				var v uint32
				for j := 0; j < size; j++ {
					v |= uint32(shadow[addr+uint32(j)]) << (8 * j)
				}
				return v
			}
			writeShadow := func(addr uint32, size int, v uint32) {
				for j := 0; j < size; j++ {
					shadow[addr+uint32(j)] = byte(v >> (8 * j))
				}
			}
			for i := 0; i < 30000; i++ {
				size := []int{1, 2, 4}[rng.Intn(3)]
				addr := (0x1000 + uint32(rng.Intn(64))) &^ uint32(size-1)
				isRead := rng.Intn(2) == 0
				val := rng.Uint32()
				switch size {
				case 1:
					val &= 0xFF
				case 2:
					val &= 0xFFFF
				}
				switch rng.Intn(12) {
				case 0:
					r.k.ForceCheckpoint()
					if !r.memoDropped() {
						t.Fatalf("%s seed %d step %d: checkpoint did not drop the port memo", war, seed, i)
					}
				case 1:
					// Flush first so the power cycle loses no dirty data and
					// the shadow stays the architectural truth.
					r.k.ForceCheckpoint()
					port.LoadHit(addr&^3, 4) // re-prime the memo if the line is cached
					r.k.PowerFailure()
					if !r.memoDropped() {
						t.Fatalf("%s seed %d step %d: power failure did not drop the port memo", war, seed, i)
					}
					if _, hit := port.LoadHit(addr&^3, 4); hit {
						t.Fatalf("%s seed %d step %d: port served a hit from an invalidated cache", war, seed, i)
					}
					if _, ok := r.k.Restore(); !ok {
						t.Fatalf("%s seed %d step %d: no checkpoint to restore", war, seed, i)
					}
					if !r.memoDropped() {
						t.Fatalf("%s seed %d step %d: restore did not drop the port memo", war, seed, i)
					}
				case 2, 3, 4, 5, 6:
					// Full-path access; a miss (which may evict or checkpoint)
					// must drop the port memo.
					misses := r.c.CacheMisses
					if isRead {
						if got, want := r.k.Load(addr, size), readShadow(addr, size); got != want {
							t.Fatalf("%s seed %d step %d: Load(%#x,%d) = %#x, shadow %#x", war, seed, i, addr, size, got, want)
						}
					} else {
						r.k.Store(addr, size, val)
						writeShadow(addr, size, val)
					}
					if r.c.CacheMisses > misses && !r.memoDropped() {
						t.Fatalf("%s seed %d step %d: miss did not drop the port memo", war, seed, i)
					}
				default:
					// Port access: served hits must agree with the shadow.
					if isRead {
						if got, hit := port.LoadHit(addr, size); hit {
							if want := readShadow(addr, size); got != want {
								t.Fatalf("%s seed %d step %d: stale LoadHit(%#x,%d) = %#x, shadow %#x", war, seed, i, addr, size, got, want)
							}
						}
					} else if port.StoreHit != nil && port.StoreHit(addr, size, val) {
						writeShadow(addr, size, val)
					}
				}
			}
			// Drain through the full path: every word the stream touched must
			// read back as the shadow's value.
			for addr := uint32(0x1000); addr < 0x1040; addr += 4 {
				if got, want := r.k.Load(addr, 4), readShadow(addr, 4); got != want {
					t.Fatalf("%s seed %d: final Load(%#x) = %#x, shadow %#x", war, seed, addr, got, want)
				}
			}
		}
	}
}

// TestFastPortDirtyThresholdStores pins the adaptive-checkpointing
// interaction: with a dirty threshold armed, StoreHit must decline any store
// that would newly dirty a line (the full path owns the threshold check),
// and serving an already-dirty line must never trigger a checkpoint.
func TestFastPortDirtyThresholdStores(t *testing.T) {
	rr := newRigThreshold(t, 32, 2, 3)
	port, ok := rr.k.FastPort()
	if !ok {
		t.Fatal("fast port refused")
	}
	const addr = 0x1000
	rr.k.Load(addr, 4) // clean line in cache
	if port.StoreHit(addr, 4, 7) {
		t.Fatal("StoreHit dirtied a clean line under an armed dirty threshold")
	}
	rr.k.Store(addr, 4, 7) // full path dirties it (and counts the threshold)
	ckpts := rr.c.Checkpoints
	if !port.StoreHit(addr, 4, 9) {
		t.Fatal("StoreHit declined an already-dirty line")
	}
	if rr.c.Checkpoints != ckpts {
		t.Fatal("StoreHit on a dirty line changed the checkpoint count")
	}
	if got := rr.k.Load(addr, 4); got != 9 {
		t.Fatalf("value after port store = %#x, want 9", got)
	}
}
