package fuzzer

import (
	"reflect"
	"strings"
	"testing"

	"nacho/internal/power"
	"nacho/internal/snapshot"
	"nacho/internal/systems"
)

// tinyProg generates a deliberately small program so full-density (Stride=1)
// enumeration stays tractable.
func tinyProg(seed int64) *Prog {
	return GenerateWith(seed, Params{Ops: 6, BufWords: 64, MaxLoop: 2, MaxDepth: 1}, newSeedRNG(seed))
}

// TestExhaustiveFullDensityForkBootEquivalence is the exhaustive-mode half
// of the acceptance criterion: every instruction-granular crash instant in
// the first two checkpoint intervals of small generated programs produces a
// forked outcome byte-identical (result, error string, final NVM data) to
// a from-boot run under the same one-instant schedule.
func TestExhaustiveFullDensityForkBootEquivalence(t *testing.T) {
	cfg := Config{CacheSize: 64, Ways: 2}.normalized()
	kinds := []systems.Kind{systems.KindNACHO, systems.KindClank, systems.KindReplayCache}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		img, g, err := prepare(tinyProg(seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			_, sysCycles := differential(img, g, kind, cfg, nil)
			nm := forkMachines(img, kind, cfg, failureBudget(sysCycles, 1))
			n := 0
			stats, err := snapshot.Explore(nm, snapshot.Options{Windows: 2, Stride: 1},
				func(o snapshot.Outcome) bool {
					n++
					bm, err := nm(power.NewAt(o.Instant), nil)
					if err != nil {
						t.Fatalf("seed %d %s instant %d: %v", seed, kind, o.Instant, err)
					}
					bres, berr := bm.Run()
					if (o.Err == nil) != (berr == nil) || (o.Err != nil && o.Err.Error() != berr.Error()) {
						t.Fatalf("seed %d %s instant %d: error diverged: fork=%v boot=%v", seed, kind, o.Instant, o.Err, berr)
					}
					if !reflect.DeepEqual(o.Res, bres) {
						t.Fatalf("seed %d %s instant %d: result diverged:\nfork %+v\nboot %+v", seed, kind, o.Instant, o.Res, bres)
					}
					fd := finalSegments(img, o.Sys.Mem())
					bd := finalSegments(img, bm.System().Mem())
					if !reflect.DeepEqual(fd, bd) {
						t.Fatalf("seed %d %s instant %d: final NVM diverged", seed, kind, o.Instant)
					}
					return n < 3000 // runaway guard; tiny programs stay well under
				})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, kind, err)
			}
			if stats.Instants == 0 {
				t.Fatalf("seed %d %s: explored zero instants", seed, kind)
			}
		}
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
