package fuzzer

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nacho/internal/emu"
	"nacho/internal/harness"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/snapshot"
	"nacho/internal/systems"
)

// tinyProg generates a deliberately small program so full-density (Stride=1)
// enumeration stays tractable.
func tinyProg(seed int64) *Prog {
	return GenerateWith(seed, Params{Ops: 6, BufWords: 64, MaxLoop: 2, MaxDepth: 1}, newSeedRNG(seed))
}

// referee explores every instant, at stride 1, of the first two checkpoint
// intervals of img under nm and compares each with a from-boot run under
// the same one-instant schedule: the error string, the result (every field
// of a fresh tail, the exact fields of a reused outcome) and the final NVM
// data.
func referee(t *testing.T, label string, img *program.Image, nm snapshot.NewMachine) snapshot.Stats {
	t.Helper()
	stats, err := snapshot.Explore(nm, snapshot.Options{Windows: 2, Stride: 1}, func(o snapshot.Outcome) bool {
		bm, err := nm(power.NewAt(o.Instant), nil)
		if err != nil {
			t.Fatalf("%s instant %d: %v", label, o.Instant, err)
		}
		if d := o.Diff(bm.Run()); d != "" {
			t.Fatalf("%s instant %d (reused %v): %s", label, o.Instant, o.Reused, d)
		}
		if !reflect.DeepEqual(finalSegments(img, o.Sys.Mem()), finalSegments(img, bm.System().Mem())) {
			t.Fatalf("%s instant %d (reused %v): final NVM diverged", label, o.Instant, o.Reused)
		}
		return true
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if stats.Instants == 0 || stats.Instants != stats.Tails+stats.Reused {
		t.Fatalf("%s: implausible stats %+v", label, stats)
	}
	t.Logf("%-25s instants %5d tails %5d reused %5d reruns %d", label, stats.Instants, stats.Tails, stats.Reused, stats.Reruns)
	return stats
}

// TestExhaustiveFullDensityForkBootEquivalence is the explorer's referee:
// every instruction-granular crash instant in the first two checkpoint
// intervals of small generated programs, on every system and the planted
// nacho-broken-pw, must match a from-boot run under the same one-instant
// schedule. The rollback systems must reuse outcomes, so the class path is
// refereed too.
func TestExhaustiveFullDensityForkBootEquivalence(t *testing.T) {
	cfg := Config{CacheSize: 64, Ways: 2}.normalized()
	kinds := append(systems.AllKinds(), systems.KindNACHOBrokenPW)
	// Generate seeds 1 and 7 execute 73 and 116 ops, within the 150 that
	// perfbench's crash-explore workload takes.
	progs := []*Prog{tinyProg(1), tinyProg(2), tinyProg(3), Generate(1), Generate(7)}
	if testing.Short() {
		progs = progs[:1]
	}
	reused := map[systems.Kind]int{}
	for i, prog := range progs {
		img, g, err := prepare(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			_, sysCycles := differential(img, g, kind, cfg, nil)
			nm := forkMachines(img, kind, cfg, failureBudget(sysCycles, 1))
			reused[kind] += referee(t, fmt.Sprintf("program %d %s", i, kind), img, nm).Reused
		}
	}
	for _, kind := range kinds {
		if systems.VerifyConfigFor(kind).RollbackOnFailure && reused[kind] == 0 {
			t.Errorf("%s: no instant reused its class's outcome", kind)
		}
	}
}

// TestExhaustiveForcedCheckpointReferee referees runs with a short
// forced-checkpoint period, where the walker's one-instruction steps can
// stop at a forced checkpoint and the post-reboot key includes the next
// forced checkpoint relative to the clock. NACHO runs its checkpoints
// single-buffered under the energy reserve, so a failure that strikes
// inside one fires when it completes.
func TestExhaustiveForcedCheckpointReferee(t *testing.T) {
	cfg := Config{CacheSize: 64, Ways: 2}.normalized()
	reused := 0
	for i, prog := range []*Prog{Generate(1), Generate(7)} {
		img, g, err := prepare(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []systems.Kind{systems.KindNACHO, systems.KindClank, systems.KindPROWL, systems.KindReplayCache} {
			_, sysCycles := differential(img, g, kind, cfg, nil)
			rc := baseConfig(cfg)
			rc.MaxCycles = failureBudget(sysCycles, 1)
			rc.ForcedCheckpointPeriod = 200
			rc.EnergyPrediction = true
			nm := func(sched power.Schedule, probe sim.Probe) (*emu.Machine, error) {
				rc := rc
				rc.Schedule, rc.Probe = sched, probe
				m, _, err := harness.BuildMachine(img, kind, rc)
				return m, err
			}
			reused += referee(t, fmt.Sprintf("program %d %s", i, kind), img, nm).Reused
		}
	}
	if reused == 0 {
		t.Error("no instant reused its class's outcome")
	}
}

// findBrokenPWByEnumeration scans seeds until pure crash-instant
// enumeration — probe-free forks compared differentially against the golden
// run, no verifier involved — catches the deliberately broken NACHO. The
// verifier would flag the unsafe write-back failure-free (the random
// oracle's test covers that); this drives the sweep itself to prove
// enumeration finds the post-crash state corruption, then confirms the
// instant from boot exactly as CheckExhaustive does.
func findBrokenPWByEnumeration(t *testing.T, cfg Config, intervals int) Finding {
	t.Helper()
	kind := systems.KindNACHOBrokenPW
	for seed := int64(1); seed <= 60; seed++ {
		prog := Generate(seed)
		img, g, err := prepare(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, sysCycles := differential(img, g, kind, cfg, nil)
		budget := failureBudget(sysCycles, 1)
		var finding *Finding
		_, err = snapshot.Explore(forkMachines(img, kind, cfg, budget), snapshot.Options{Windows: intervals},
			func(o snapshot.Outcome) bool {
				if diffAgainstGolden(o.Res, o.Err, o.Sys.Mem(), g, budget) == nil {
					return true
				}
				cfc, _ := checkOne(img, g, kind, power.NewAt(o.Instant), budget, cfg)
				if cfc == nil {
					t.Fatalf("seed %d instant %d: fork diverged but from-boot replay did not", seed, o.Instant)
				}
				finding = &Finding{Seed: seed, System: kind, Kind: cfc.kind, Detail: cfc.detail, Prog: prog, Schedule: []uint64{o.Instant}}
				return false
			})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if finding != nil {
			return *finding
		}
	}
	t.Fatal("crash-instant enumeration produced no broken-pw finding in 60 seeds")
	panic("unreachable")
}

// TestExhaustiveDetectsBrokenPW is the acceptance criterion: exhaustive
// crash-instant enumeration catches the planted WAR bug (inverted pw-bit
// check) and the finding carries a one-instant schedule that minimizes and
// replays from its artifact.
func TestExhaustiveDetectsBrokenPW(t *testing.T) {
	cfg := ExhaustiveConfig{Oracle: Config{CacheSize: 64}, Intervals: 4}.normalized()
	f := findBrokenPWByEnumeration(t, cfg.Oracle, cfg.Intervals)
	if len(f.Schedule) != 1 {
		t.Fatalf("finding schedule %v, want exactly one instant", f.Schedule)
	}

	min := Minimize(f, cfg.Oracle)
	if !min.Minimized {
		t.Fatal("Minimize did not mark the finding as minimized")
	}
	a, err := NewArtifact(min, cfg.Oracle)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := a.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("exhaustive finding's artifact did not reproduce")
	}
}

// TestCheckExhaustiveFlagsBrokenPW: the full CheckExhaustive pipeline also
// reports the planted bug (here via its failure-free differential, which
// runs before enumeration and carries the verifier).
func TestCheckExhaustiveFlagsBrokenPW(t *testing.T) {
	cfg := ExhaustiveConfig{Oracle: Config{CacheSize: 64}}
	for seed := int64(1); seed <= 60; seed++ {
		fs, _, err := CheckExhaustive(Generate(seed), []systems.Kind{systems.KindNACHOBrokenPW}, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(fs) > 0 {
			return
		}
	}
	t.Fatal("CheckExhaustive produced no broken-pw finding in 60 seeds")
}

// TestCampaignExhaustiveDeterministic: the exhaustive campaign's findings
// report is a pure function of its configuration, and the progress stream
// reports the measured speedup.
func TestCampaignExhaustiveDeterministic(t *testing.T) {
	run := func() (*CampaignReport, string) {
		var progress strings.Builder
		rep := RunCampaign(CampaignConfig{
			Seeds:      2,
			SeedBase:   1,
			Kinds:      []systems.Kind{systems.KindNACHO},
			Oracle:     Config{CacheSize: 64},
			Exhaustive: true,
			Intervals:  1,
			Stride:     3,
			Progress:   &progress,
		})
		return rep, progress.String()
	}
	r1, p1 := run()
	r2, _ := run()
	if r1.String() != r2.String() {
		t.Fatalf("exhaustive campaign is not deterministic:\n%s\n%s", r1, r2)
	}
	if !strings.Contains(p1, "exhaustive:") || !strings.Contains(p1, "speedup") {
		t.Fatalf("progress stream missing exhaustive speedup line:\n%s", p1)
	}
}

// exhaustiveMustNotFind asserts a healthy system survives full enumeration
// of its first intervals — the oracle's false-positive guard.
func TestExhaustiveHealthySystemsClean(t *testing.T) {
	prog := tinyProg(7)
	fs, stats, err := CheckExhaustive(prog, []systems.Kind{systems.KindNACHO, systems.KindWriteThrough},
		ExhaustiveConfig{Oracle: Config{CacheSize: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("healthy systems produced findings: %v", fs)
	}
	if stats.Instants == 0 || stats.Systems != 2 {
		t.Fatalf("implausible stats: %+v", stats)
	}
}
