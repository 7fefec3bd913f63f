package checkpoint

import (
	"testing"

	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/sim"
)

const testBase = 0x000E_0000

func newStore(maxLines int) (*Store, *mem.NVM, *sim.TestClock) {
	clk := &sim.TestClock{}
	var c metrics.Counters
	nvm := mem.NewNVM(mem.NewSpace(), mem.DefaultCostModel())
	nvm.Attach(clk, &c)
	return NewStore(nvm, testBase, maxLines), nvm, clk
}

func snap(pc uint32) sim.Snapshot {
	var s sim.Snapshot
	s.PC = pc
	for i := range s.Regs {
		s.Regs[i] = pc + uint32(i)
	}
	return s
}

func TestInitAndRestore(t *testing.T) {
	s, _, clk := newStore(4)
	boot := snap(0x1000)
	s.Init(boot)
	if clk.Cycle != 0 {
		t.Errorf("Init charged %d cycles, want 0", clk.Cycle)
	}
	got, ok := s.Restore()
	if !ok || got != boot {
		t.Fatalf("Restore = %+v, %v; want boot snapshot", got, ok)
	}
}

func TestRestoreWithoutInit(t *testing.T) {
	s, _, _ := newStore(0)
	if _, ok := s.Restore(); ok {
		t.Error("Restore succeeded on empty store")
	}
}

func TestCheckpointRoundTripAndLines(t *testing.T) {
	s, nvm, _ := newStore(4)
	s.Init(snap(0x1000))
	lines := []Line{{Addr: 0x2000, Data: 0xAAAA}, {Addr: 0x2004, Data: 0xBBBB}}
	s.Checkpoint(snap(0x2000), lines, nil)
	got, ok := s.Restore()
	if !ok || got.PC != 0x2000 {
		t.Fatalf("Restore after checkpoint: %+v, %v", got, ok)
	}
	// Redo applied the lines to their home addresses.
	if nvm.ReadRaw(0x2000, 4) != 0xAAAA || nvm.ReadRaw(0x2004, 4) != 0xBBBB {
		t.Error("checkpoint lines not applied to home NVM")
	}
}

func TestSlotsAlternate(t *testing.T) {
	s, _, _ := newStore(0)
	s.Init(snap(0x1000))
	for i := uint32(1); i <= 5; i++ {
		s.Checkpoint(snap(0x1000+4*i), nil, nil)
		got, ok := s.Restore()
		if !ok || got.PC != 0x1000+4*i {
			t.Fatalf("checkpoint %d: restore pc %#x", i, got.PC)
		}
	}
}

func TestOnCommitCalledExactlyOnce(t *testing.T) {
	s, _, _ := newStore(1)
	s.Init(snap(0))
	n := 0
	s.Checkpoint(snap(4), []Line{{Addr: 0x3000, Data: 1}}, func() { n++ })
	if n != 1 {
		t.Errorf("onCommit called %d times, want 1", n)
	}
}

func TestCapacityPanic(t *testing.T) {
	s, _, _ := newStore(1)
	s.Init(snap(0))
	defer func() {
		if recover() == nil {
			t.Error("over-capacity checkpoint did not panic")
		}
	}()
	s.Checkpoint(snap(4), []Line{{Addr: 0, Data: 0}, {Addr: 4, Data: 0}}, nil)
}

// TestCrashConsistencyAtEveryCycle is the incorruptibility property
// (paper Section 4.1): a power failure at ANY cycle during a checkpoint must
// leave the store restoring either the complete old checkpoint (with old NVM
// home values) or the complete new one (with the redo guaranteed to finish
// during Restore). It simulates the failure at every possible cycle.
func TestCrashConsistencyAtEveryCycle(t *testing.T) {
	const homeAddr = 0x2000
	const oldVal, newVal = 0x0501D01D, 0x05E30E30

	// Measure the failure-free checkpoint duration first.
	probe, _, probeClk := newStore(2)
	probe.Init(snap(0x100))
	probe.Checkpoint(snap(0x200), []Line{{Addr: homeAddr, Data: newVal}, {Addr: homeAddr + 4, Data: 2}}, nil)
	total := probeClk.Cycle

	for fail := uint64(1); fail <= total; fail++ {
		clk := &sim.TestClock{FailAt: fail}
		var c metrics.Counters
		nvm := mem.NewNVM(mem.NewSpace(), mem.DefaultCostModel())
		nvm.Attach(clk, &c)
		st := NewStore(nvm, testBase, 2)
		st.Init(snap(0x100))
		nvm.WriteRaw(homeAddr, 4, oldVal)
		nvm.WriteRaw(homeAddr+4, 4, 0xB01D0)

		committed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(sim.PowerFail); !ok {
						panic(r)
					}
				}
			}()
			st.Checkpoint(snap(0x200), []Line{{Addr: homeAddr, Data: newVal}, {Addr: homeAddr + 4, Data: 2}}, func() { committed = true })
		}()

		// Reboot: restore must succeed and be internally consistent.
		got, ok := st.Restore()
		if !ok {
			t.Fatalf("fail@%d: no restorable checkpoint", fail)
		}
		switch got.PC {
		case 0x100: // old checkpoint survived
			if committed {
				t.Fatalf("fail@%d: commit observed but old checkpoint restored", fail)
			}
			if v := nvm.ReadRaw(homeAddr, 4); v != oldVal {
				t.Fatalf("fail@%d: home NVM %#x modified before commit", fail, v)
			}
		case 0x200: // new checkpoint won; redo must be complete after Restore
			if v := nvm.ReadRaw(homeAddr, 4); v != newVal {
				t.Fatalf("fail@%d: committed checkpoint but home = %#x", fail, v)
			}
			if v := nvm.ReadRaw(homeAddr+4, 4); v != 2 {
				t.Fatalf("fail@%d: second line not applied: %#x", fail, v)
			}
		default:
			t.Fatalf("fail@%d: restored unexpected pc %#x", fail, got.PC)
		}
	}
}

// TestTornCheckpointFallsBackByteForByte pins the narrowest torn-checkpoint
// window: the power cut lands after every redo-log (staging) word has reached
// NVM but before the commit flag — the sequence word — flips. The staged
// checkpoint is complete in the inactive slot, yet it must be as if it never
// happened: Restore returns the previous snapshot, and every NVM byte outside
// the staging slot is bit-identical to the pre-checkpoint image.
func TestTornCheckpointFallsBackByteForByte(t *testing.T) {
	const homeAddr = 0x2000
	const oldVal, newVal = 0x0DDC0FFE, 0x0DDFACE5
	boot := snap(0x100)
	lines := []Line{{Addr: homeAddr, Data: newVal}, {Addr: homeAddr + 4, Data: 2}}

	// Staging is offApplied + offNLines + snapshot words + (addr,data) per
	// line; the commit sequence word is the very next NVM write. Every write
	// advances the clock by the NVM cost BEFORE the data lands, so failing at
	// any cycle in (stageEnd, stageEnd+cost] means staging is fully on NVM
	// and the commit word is not.
	cost := mem.DefaultCostModel().NVMCycles
	stagingWrites := uint64(2 + sim.SnapshotWords + 2*len(lines))
	stageEnd := stagingWrites * cost
	commitEnd := stageEnd + cost

	// Ground the arithmetic against the real write sequence once.
	{
		st, _, clk := newStore(2)
		st.Init(boot)
		var atCommit uint64
		st.Checkpoint(snap(0x200), lines, func() { atCommit = clk.Cycle })
		if atCommit != commitEnd {
			t.Fatalf("commit word lands at cycle %d, test computed %d; staging layout changed", atCommit, commitEnd)
		}
	}

	for fail := stageEnd + 1; fail <= commitEnd; fail++ {
		clk := &sim.TestClock{FailAt: fail}
		var c metrics.Counters
		nvm := mem.NewNVM(mem.NewSpace(), mem.DefaultCostModel())
		nvm.Attach(clk, &c)
		st := NewStore(nvm, testBase, 2)
		st.Init(boot)
		nvm.WriteRaw(homeAddr, 4, oldVal)
		nvm.WriteRaw(homeAddr+4, 4, 0xB01D)
		pre := nvm.Space().Fork()

		committed := false
		func() {
			defer func() {
				if _, ok := recover().(sim.PowerFail); !ok {
					t.Fatalf("fail@%d: checkpoint completed, expected a power failure", fail)
				}
			}()
			st.Checkpoint(snap(0x200), lines, func() { committed = true })
		}()
		if committed {
			t.Fatalf("fail@%d: commit callback ran before the sequence word landed", fail)
		}

		got, ok := st.Restore()
		if !ok || got != boot {
			t.Fatalf("fail@%d: Restore = %+v, %v; want the pre-checkpoint snapshot", fail, got, ok)
		}

		// Byte-for-byte fallback: only bytes inside the staging slot may
		// differ from the pre-checkpoint image (the staged words are there,
		// but uncommitted data is invisible to Restore).
		stagingLo := st.slotAddr(1, 0)
		stagingHi := stagingLo + st.slotWords()*4
		check := func(lo, hi uint32) {
			for a := lo; a < hi; a++ {
				if a >= stagingLo && a < stagingHi {
					continue
				}
				if got, want := nvm.ReadRaw(a, 1), pre.Read(a, 1); got != want {
					t.Fatalf("fail@%d: NVM byte 0x%08x = %#02x, want pre-checkpoint %#02x", fail, a, got, want)
				}
			}
		}
		check(homeAddr, homeAddr+8)
		check(testBase, testBase+st.SizeBytes())
	}
}

func TestSizeBytes(t *testing.T) {
	s, _, _ := newStore(8)
	want := uint32(2 * (offLines + 16) * 4)
	if s.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", s.SizeBytes(), want)
	}
}

// TestEqualState: a fork stands at its parent's sequence position, and a
// commit moves it.
func TestEqualState(t *testing.T) {
	s, nvm, _ := newStore(2)
	s.Init(sim.Snapshot{})
	f := s.Fork(nvm.Fork())
	if !s.EqualState(f) {
		t.Fatal("a fork compares unequal")
	}
	f.seq++
	if s.EqualState(f) || f.EqualState(s) {
		t.Fatal("stores at different sequence positions compare equal")
	}
}
