package fuzzer

import (
	"testing"

	"nacho/internal/emu"
	"nacho/internal/metrics"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/snapshot"
	"nacho/internal/systems"
	"nacho/internal/verify"
)

// keepVolatile is a planted mutant of any memory system: its PowerFailure
// skips the wrapped system's volatile reset (and ReplayCache's JIT save), so
// cache lines, trackers and stack bounds survive every power failure. A run
// without a failure never calls PowerFailure, so only a failure can expose
// it.
type keepVolatile struct{ sim.System }

func (keepVolatile) PowerFailure() {}

// Fork keeps the mutation in every fork, and EqualState compares the wrapped
// systems.
func (k keepVolatile) Fork(clk sim.Clock, regs sim.RegSource, c *metrics.Counters) sim.System {
	return keepVolatile{k.System.Fork(clk, regs, c)}
}

func (k keepVolatile) EqualState(o sim.System) bool {
	return k.System.EqualState(o.(keepVolatile).System)
}

// mutantMachine builds what harness.BuildMachine builds for one oracle run
// of kind, with the system wrapped in keepVolatile, under the given schedule
// and cycle budget. probe and ver (nil for none) observe the run as the
// harness's verified runs do.
func mutantMachine(img *program.Image, kind systems.Kind, cfg Config, sched power.Schedule, budget uint64, probe sim.Probe, ver *verify.Verifier) (*emu.Machine, error) {
	frozen, err := img.FrozenSpace()
	if err != nil {
		return nil, err
	}
	sys, err := systems.Build(kind, frozen.Fork(), systems.Config{CacheSize: cfg.CacheSize, Ways: cfg.Ways})
	if err != nil {
		return nil, err
	}
	return emu.New(keepVolatile{sys}, img.Text, img.Entry, emu.Config{
		Schedule:        sched,
		MaxInstructions: fuzzMaxInstructions,
		MaxCycles:       budget,
		FinalFlush:      true,
		Probe:           probe,
		Verifier:        ver,
	}), nil
}

// TestFailureOnlyMutant is the first mutant of the catalogue that only a
// power failure exposes. Over generated seeds 1-40 the failure-free
// differential (verifier attached, compared with the golden run) must kill
// it on no system, and the exhaustive explorer (every instant of the first
// two checkpoint intervals, each outcome compared with the golden run as
// CheckExhaustive compares it) must kill it on NACHO, PROWL and ReplayCache
// for every seed. So the explorer's empty-cache fast paths and its
// EqualState key cannot hide a lost volatile reset. Clank is an equivalent
// mutant, and must survive: its only volatile state is its tracker, and a
// tracker that survives the failure only adds conservative checkpoints.
func TestFailureOnlyMutant(t *testing.T) {
	const seeds = 40
	cfg := Config{}.normalized()
	for _, m := range []struct {
		kind       systems.Kind
		equivalent bool
	}{
		{systems.KindNACHO, false},
		{systems.KindPROWL, false},
		{systems.KindReplayCache, false},
		{systems.KindClank, true},
	} {
		failureFree, explorer := 0, 0
		for seed := int64(1); seed <= seeds; seed++ {
			img, g, err := prepare(Generate(seed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			frozen, err := img.FrozenSpace()
			if err != nil {
				t.Fatal(err)
			}
			ver := verify.New(frozen, systems.VerifyConfigFor(m.kind))
			fm, err := mutantMachine(img, m.kind, cfg, nil, failFreeMaxCycles, ver, ver)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fm.Run()
			if ver.Err() != nil || diffAgainstGolden(res, err, fm.System().Mem(), g, failFreeMaxCycles) != nil {
				failureFree++
			}
			fm.System().Release()
			ver.Release()

			budget := failureBudget(res.Counters.Cycles, 1)
			killed := false
			nm := func(sched power.Schedule, probe sim.Probe) (*emu.Machine, error) {
				return mutantMachine(img, m.kind, cfg, sched, budget, probe, nil)
			}
			st, err := snapshot.Explore(nm, snapshot.Options{Windows: 2, Stride: 1}, func(o snapshot.Outcome) bool {
				killed = diffAgainstGolden(o.Res, o.Err, o.Sys.Mem(), g, budget) != nil
				return !killed
			})
			if err != nil || st.Instants == 0 {
				t.Fatalf("%s seed %d: explored %d instants, error %v", m.kind, seed, st.Instants, err)
			}
			if killed {
				explorer++
			}
		}
		t.Logf("%-12s killed by the explorer on %d of %d seeds, by the failure-free differential on %d", m.kind, explorer, seeds, failureFree)
		if failureFree != 0 {
			t.Errorf("%s: the failure-free differential killed a mutant that needs a failure on %d seeds", m.kind, failureFree)
		}
		want := seeds
		if m.equivalent {
			want = 0
		}
		if explorer != want {
			t.Errorf("%s: the explorer killed the mutant on %d of %d seeds, want %d", m.kind, explorer, seeds, want)
		}
	}
}
