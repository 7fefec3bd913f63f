package snapshot_test

// The explorer's release contract: every system it builds or forks is
// released exactly once, after the last read of it, whatever the exit.

import (
	"fmt"
	"testing"

	"nacho/internal/emu"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/snapshot"
	"nacho/internal/systems"
)

// ledger counts the systems one exploration created and released.
type ledger struct {
	created, released int
}

// wrap returns s counted as a new system of the ledger.
func (l *ledger) wrap(s sim.System) *countedSystem {
	l.created++
	return &countedSystem{inner: s, l: l}
}

// countedSystem is a sim.System whose forks are counted too, and which
// panics on any call once it has been released.
type countedSystem struct {
	inner    sim.System
	l        *ledger
	released bool
}

func (s *countedSystem) live() sim.System {
	if s.released {
		panic(fmt.Sprintf("use of a released %s system", s.inner.Name()))
	}
	return s.inner
}

func (s *countedSystem) Name() string { return s.live().Name() }

func (s *countedSystem) Attach(clk sim.Clock, regs sim.RegSource, c *metrics.Counters, p sim.Probe) {
	s.live().Attach(clk, regs, c, p)
}

func (s *countedSystem) Fork(clk sim.Clock, regs sim.RegSource, c *metrics.Counters) sim.System {
	return s.l.wrap(s.live().Fork(clk, regs, c))
}

func (s *countedSystem) EqualState(o sim.System) bool {
	return s.live().EqualState(o.(*countedSystem).live())
}

func (s *countedSystem) Load(addr uint32, size int) uint32 { return s.live().Load(addr, size) }

func (s *countedSystem) Store(addr uint32, size int, val uint32) { s.live().Store(addr, size, val) }

func (s *countedSystem) NotifySP(sp uint32) { s.live().NotifySP(sp) }

func (s *countedSystem) ForceCheckpoint() { s.live().ForceCheckpoint() }

func (s *countedSystem) PowerFailure() { s.live().PowerFailure() }

func (s *countedSystem) Restore() (sim.Snapshot, bool) { return s.live().Restore() }

func (s *countedSystem) Mem() sim.MemReaderWriter { return s.live().Mem() }

func (s *countedSystem) Release() {
	s.live().Release()
	s.released = true
	s.l.released++
}

// countingFactory builds machines in the matrix's 64 B 2-way configuration
// under the cycle budget maxCycles (0 for none), whose systems, and every
// fork of them, are counted in l.
func countingFactory(img *program.Image, kind systems.Kind, maxCycles uint64, l *ledger) snapshot.NewMachine {
	return func(sched power.Schedule, probe sim.Probe) (*emu.Machine, error) {
		frozen, err := img.FrozenSpace()
		if err != nil {
			return nil, err
		}
		sys, err := systems.Build(kind, frozen.Fork(), systems.Config{CacheSize: 64, Ways: 2})
		if err != nil {
			return nil, err
		}
		return emu.New(l.wrap(sys), img.Text, img.Entry, emu.Config{
			Schedule:        sched,
			Probe:           probe,
			FinalFlush:      true,
			MaxCycles:       maxCycles,
			MaxInstructions: 8_000_000,
		}), nil
	}
}

// TestExploreReleasesEveryFork requires the explorer to release every system
// it creates exactly once, and never to touch one afterwards (a released
// countedSystem panics), over a full walk, an early stop and a walk with
// budget re-runs. Each visitor reads the outcome's final memory, which must
// still be live while visit runs.
func TestExploreReleasesEveryFork(t *testing.T) {
	build := func(t *testing.T, name string) *program.Image {
		p, ok := program.ByName(name)
		if !ok {
			t.Skipf("%s benchmark not registered", name)
		}
		img, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	cached := []systems.Kind{systems.KindPROWL, systems.KindReplayCache, systems.KindNACHO, systems.KindOracleNACHO}
	for _, tc := range []struct {
		name      string
		program   string
		kinds     []systems.Kind
		maxCycles uint64 // 0: every tail runs to its halt
		stopAt    int    // visit returns false on this outcome; 0: never
		rerun     bool   // some class re-runs for its budget; else some instant reuses its class's outcome
	}{
		{"full walk", "adpcm", cached, 0, 0, false},
		{"early stop", "adpcm", []systems.Kind{systems.KindPROWL, systems.KindNACHO, systems.KindOracleNACHO}, 0, 20, false},
		{"budget re-runs", "quicksort", []systems.Kind{systems.KindClank, systems.KindPROWL, systems.KindNACHO}, matrixMaxCycles, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := build(t, tc.program)
			reused, reruns := 0, 0
			for _, kind := range tc.kinds {
				var l ledger
				n := 0
				stats, err := snapshot.Explore(countingFactory(img, kind, tc.maxCycles, &l), snapshot.Options{Windows: 2, Stride: 61}, func(o snapshot.Outcome) bool {
					n++
					_ = o.Sys.Mem().ReadRaw(mem.CheckpointBase, 4)
					return n != tc.stopAt
				})
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				if tc.stopAt > 0 && n != tc.stopAt {
					t.Fatalf("%s: visited %d outcomes before the stop, want %d", kind, n, tc.stopAt)
				}
				if stats.Instants == 0 {
					t.Fatalf("%s: explored zero instants", kind)
				}
				if l.created != l.released {
					t.Errorf("%s: created %d systems, released %d (stats %+v)", kind, l.created, l.released, stats)
				}
				reused += stats.Reused
				reruns += stats.Reruns
			}
			if !tc.rerun && reused == 0 {
				t.Error("no instant reused its class's outcome")
			}
			if tc.rerun && reruns == 0 {
				t.Error("no budget re-runs under the cycle cap")
			}
		})
	}
}
