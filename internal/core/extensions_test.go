package core

import (
	"testing"

	"nacho/internal/cache"
	"nacho/internal/mem"
	"nacho/internal/sim"
)

func newRigOpts(t *testing.T, opts Options) *rig {
	t.Helper()
	r := &rig{clk: &sim.TestClock{}, regs: fakeRegs{sp: mem.StackTop}}
	r.nvm = mem.NewNVM(mem.NewSpace())
	k, err := New("test", r.nvm, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.k = k
	r.attach(nil)
	return r
}

func TestAdaptiveThresholdBoundsCheckpointSize(t *testing.T) {
	r := newRigOpts(t, Options{CacheSize: 64, Ways: 2, WARMode: WARCacheBits, DirtyThreshold: 4})
	// Dirty many distinct lines: the policy must checkpoint before more than
	// 4 (+ the in-flight line) are dirty at once.
	for i := uint32(0); i < 16; i++ {
		r.k.Store(0x1000+4*i, 4, i)
	}
	if r.c.AdaptiveCkpts == 0 {
		t.Fatal("adaptive policy never fired")
	}
	if r.c.MaxCheckpointLines > 5 {
		t.Errorf("max checkpoint lines = %d, want <= threshold+1", r.c.MaxCheckpointLines)
	}
}

func TestAdaptiveCountTracksCleaning(t *testing.T) {
	// Safe evictions clean lines; the dirty count must follow, so a working
	// set cycled through one set never trips a generous threshold.
	r := newRigOpts(t, Options{CacheSize: 8, Ways: 1, WARMode: WARCacheBits, DirtyThreshold: 6})
	for i := uint32(0); i < 40; i++ {
		r.k.Store(0x1000+8*i, 4, i) // same set, evicts (safe) each time
	}
	if r.c.AdaptiveCkpts != 0 {
		t.Errorf("adaptive fired %d times despite evictions cleaning lines", r.c.AdaptiveCkpts)
	}
}

func TestEnergyPredictionReducesCheckpointWrites(t *testing.T) {
	dirty := func(ep bool) uint64 {
		r := newRigOpts(t, Options{CacheSize: 64, Ways: 2, WARMode: WARCacheBits, EnergyPrediction: ep})
		for i := uint32(0); i < 8; i++ {
			r.k.Store(0x1000+4*i, 4, i)
		}
		r.k.ForceCheckpoint()
		return r.c.NVMWrites
	}
	db, sb := dirty(false), dirty(true)
	if sb >= db {
		t.Errorf("single-buffered checkpoint wrote %d words, double-buffered %d", sb, db)
	}
	// The double-buffered flow stages every line (2 words) then applies it
	// (1 word); single-buffered writes each line once: expect a substantial
	// cut, approaching the paper's "halving".
	if float64(sb) > 0.75*float64(db) {
		t.Errorf("saving too small: %d vs %d", sb, db)
	}
}

func TestEnergyPredictionDefersFailureAcrossCheckpoint(t *testing.T) {
	r := newRigOpts(t, Options{CacheSize: 16, Ways: 2, WARMode: WARCacheBits, EnergyPrediction: true})
	for i := uint32(0); i < 4; i++ {
		r.k.Store(0x1000+4*i, 4, 0xA0+i)
	}
	// Schedule the failure for the middle of the upcoming checkpoint.
	r.clk.FailAt = r.clk.Cycle + 30
	failed := false
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				if _, ok := rec.(sim.PowerFail); !ok {
					panic(rec)
				}
				failed = true
			}
		}()
		r.k.ForceCheckpoint()
	}()
	if !failed {
		t.Fatal("deferred failure never fired")
	}
	// The checkpoint must have completed in full before the failure: all
	// four lines are home in NVM and the snapshot is restorable.
	for i := uint32(0); i < 4; i++ {
		if got := r.nvm.ReadRaw(0x1000+4*i, 4); got != 0xA0+i {
			t.Errorf("line %d not persisted before deferred failure: %#x", i, got)
		}
	}
	r.k.PowerFailure()
	if _, ok := r.k.Restore(); !ok {
		t.Error("no restorable checkpoint after deferred failure")
	}
}

func TestEnergyPredictionCacheStateConsistent(t *testing.T) {
	r := newRigOpts(t, Options{CacheSize: 16, Ways: 2, WARMode: WARCacheBits, EnergyPrediction: true})
	r.k.Store(0x1000, 4, 7)
	r.k.ForceCheckpoint()
	l := r.k.Cache().Probe(0x1000)
	if l == nil || l.Dirty {
		t.Error("cache state wrong after single-buffered checkpoint")
	}
	if r.nvm.ReadRaw(0x1000, 4) != 7 {
		t.Error("line not persisted")
	}
	_ = cache.LineSize
}
