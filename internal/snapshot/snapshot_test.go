package snapshot_test

// Fork-vs-boot equivalence: the whole point of the snapshot package is that
// an explored instant is indistinguishable from a from-boot run under the
// same failure schedule. This suite enforces that across every benchmark ×
// every system × a strided set of crash instants in the first checkpoint
// windows, comparing the error string, the result (the whole struct for a
// fresh tail, the exact fields for a reused outcome) and the final NVM
// data-segment bytes. The fuzzer's exhaustive-mode referee adds full-density
// (Stride=1) coverage on small generated programs.

import (
	"sync/atomic"
	"testing"

	"nacho/internal/emu"
	"nacho/internal/harness"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/snapshot"
	"nacho/internal/systems"
)

// matrixMaxCycles caps every matrix run. Both sides of the comparison share
// the cap, so a long post-failure tail truncates at the identical cycle with
// the identical budget error — equivalence is still fully checked at the
// truncation point, and the matrix stays fast.
const matrixMaxCycles = 60_000

func matrixConfig(sched power.Schedule, probe sim.Probe) harness.RunConfig {
	return harness.RunConfig{
		CacheSize:       64, // small cache: frequent evictions and commits
		Ways:            2,
		Schedule:        sched,
		Probe:           probe,
		FinalFlush:      true,
		MaxCycles:       matrixMaxCycles,
		MaxInstructions: 8_000_000,
	}
}

func factory(img *program.Image, kind systems.Kind) snapshot.NewMachine {
	return func(sched power.Schedule, probe sim.Probe) (*emu.Machine, error) {
		m, _, err := harness.BuildMachine(img, kind, matrixConfig(sched, probe))
		return m, err
	}
}

// nvmDiff compares the final bytes of every non-text segment.
func nvmDiff(t *testing.T, img *program.Image, got, want sim.System, instant uint64) {
	t.Helper()
	gm, wm := got.Mem(), want.Mem()
	for _, seg := range img.Segments {
		if seg.Addr == program.TextBase {
			continue
		}
		for i := range seg.Data {
			a := seg.Addr + uint32(i)
			if g, w := byte(gm.ReadRaw(a, 1)), byte(wm.ReadRaw(a, 1)); g != w {
				t.Fatalf("instant %d: NVM byte %#08x fork=%#02x boot=%#02x", instant, a, g, w)
			}
		}
	}
}

func TestForkVsBootMatrix(t *testing.T) {
	stride, maxInstants := uint64(61), 64
	if testing.Short() {
		stride, maxInstants = 211, 12
	}
	// The cap truncates long tails at the budget, whose error fires at an
	// absolute cycle: their classes must have been re-run, not shifted.
	// Cleanup runs once every parallel subtest has finished.
	var reruns atomic.Int64
	t.Cleanup(func() {
		if !t.Failed() && reruns.Load() == 0 {
			t.Error("no budget re-runs under the 60,000-cycle cap")
		}
	})
	for _, p := range program.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			img, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range systems.AllKinds() {
				kind := kind
				t.Run(string(kind), func(t *testing.T) {
					nm := factory(img, kind)
					n := 0
					stats, err := snapshot.Explore(nm, snapshot.Options{
						Windows: 2,
						Stride:  stride,
					}, func(o snapshot.Outcome) bool {
						n++
						// The referee: a fresh machine booted under the same
						// one-instant schedule the fork ran.
						bm, err := nm(power.NewAt(o.Instant), nil)
						if err != nil {
							t.Fatalf("instant %d: boot machine: %v", o.Instant, err)
						}
						if d := o.Diff(bm.Run()); d != "" {
							t.Fatalf("instant %d (reused %v): %s", o.Instant, o.Reused, d)
						}
						nvmDiff(t, img, o.Sys, bm.System(), o.Instant)
						return n < maxInstants
					})
					if err != nil {
						t.Fatalf("explore: %v", err)
					}
					if stats.Instants == 0 {
						t.Fatal("explored zero crash instants")
					}
					if stats.Instants != stats.Tails+stats.Reused {
						t.Fatalf("instants %d != tails %d + reused %d", stats.Instants, stats.Tails, stats.Reused)
					}
					reruns.Add(int64(stats.Reruns))
				})
			}
		})
	}
}

// TestExploreSharesPrefix pins the headline property: the measured
// simulation work is below the from-boot enumeration cost.
func TestExploreSharesPrefix(t *testing.T) {
	p, ok := program.ByName("towers")
	if !ok {
		t.Skip("towers benchmark not registered")
	}
	img, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := snapshot.Explore(factory(img, systems.KindNACHO), snapshot.Options{
		Windows:     2,
		SkipWindows: 4,
		Stride:      17,
	}, func(snapshot.Outcome) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instants == 0 {
		t.Fatal("explored zero instants")
	}
	if s := stats.Speedup(); s <= 1 {
		t.Fatalf("speedup %.2f, want > 1 (stats %+v)", s, stats)
	}
}

// TestDeepWindowSpeedupGate holds the issue's performance gate: in the
// deep-window regime (the last two checkpoint intervals of towers on NACHO
// under forced checkpoints — the regime BENCH_emu.json records), the
// measured simulated-cycle speedup over re-run-from-boot is at least 5x.
// The ratio is deterministic: it counts simulated cycles, not wall time.
func TestDeepWindowSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-window exploration is a second-scale test")
	}
	img := benchImage(t)
	nm := benchFactory(img)
	st, err := snapshot.Explore(nm, snapshot.Options{Stride: 1 << 40},
		func(snapshot.Outcome) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows < 3 {
		t.Fatalf("only %d checkpoint windows", st.Windows)
	}
	deep, err := snapshot.Explore(nm, snapshot.Options{
		SkipWindows: st.Windows - 2, Windows: 2, Stride: 500,
	}, func(snapshot.Outcome) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if deep.Instants == 0 {
		t.Fatal("explored zero instants")
	}
	if s := deep.Speedup(); s < 5 {
		t.Fatalf("deep-window speedup %.2fx, gate requires >= 5x (stats %+v)", s, deep)
	}
}

// TestExploreEarlyStop: visit returning false stops the exploration without
// an error and with partial stats.
func TestExploreEarlyStop(t *testing.T) {
	p, _ := program.ByName("crc32")
	if p == nil {
		p = program.All()[0]
	}
	img, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	stats, err := snapshot.Explore(factory(img, systems.KindClank), snapshot.Options{Stride: 7},
		func(snapshot.Outcome) bool { n++; return n < 3 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || stats.Instants != 3 {
		t.Fatalf("visited %d outcomes, stats %d, want 3", n, stats.Instants)
	}
}
