package snapshot_test

// The headline measurement: exhaustive crash-instant enumeration via
// snapshot forking against the naive re-run-from-boot loop over the same
// instants. Both benchmarks execute the identical instant set, so ns/op is
// directly comparable; the forked side additionally reports its
// deterministic simulated-cycle speedup (Stats.Speedup). Reference numbers
// live in BENCH_emu.json.
//
// The regime is the last two checkpoint intervals of towers on NACHO under
// the paper's intermittent configuration (forced checkpoints): deep
// windows, where a from-boot run pays the whole prefix for every instant
// and the forked run pays it exactly once. That is the regime exhaustive
// crash testing lives in — shallow instants are cheap either way.

import (
	"testing"

	"nacho/internal/emu"
	"nacho/internal/harness"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/snapshot"
	"nacho/internal/systems"
)

func benchImage(tb testing.TB) *program.Image {
	tb.Helper()
	p, ok := program.ByName("towers")
	if !ok {
		tb.Skip("towers benchmark not registered")
	}
	img, err := p.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// benchFactory runs the paper's headline 512 B 2-way configuration with
// forced checkpoints every 50k cycles and no cycle budget: every enumerated
// run executes to its natural halt.
func benchFactory(img *program.Image) snapshot.NewMachine {
	return func(sched power.Schedule, probe sim.Probe) (*emu.Machine, error) {
		m, _, err := harness.BuildMachine(img, systems.KindNACHO, harness.RunConfig{
			CacheSize: 512, Ways: 2, Schedule: sched, Probe: probe,
			ForcedCheckpointPeriod: 50_000,
			FinalFlush:             true, MaxInstructions: 1 << 40,
		})
		return m, err
	}
}

// benchSetup counts the run's checkpoint windows (one untimed scouting
// exploration) and targets the deepest two at stride 250.
func benchSetup(b *testing.B) (snapshot.NewMachine, snapshot.Options) {
	b.Helper()
	img := benchImage(b)
	nm := benchFactory(img)
	st, err := snapshot.Explore(nm, snapshot.Options{Stride: 1 << 40},
		func(snapshot.Outcome) bool { return true })
	if err != nil {
		b.Fatal(err)
	}
	if st.Windows < 3 {
		b.Fatalf("only %d checkpoint windows; cannot pick deep ones", st.Windows)
	}
	return nm, snapshot.Options{SkipWindows: st.Windows - 2, Windows: 2, Stride: 250}
}

func BenchmarkExhaustiveForked(b *testing.B) {
	nm, opts := benchSetup(b)
	b.ResetTimer()
	var last snapshot.Stats
	for i := 0; i < b.N; i++ {
		st, err := snapshot.Explore(nm, opts, func(snapshot.Outcome) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if st.Instants == 0 {
			b.Fatal("explored zero instants")
		}
		last = st
	}
	b.ReportMetric(last.Speedup(), "sim-cycle-speedup")
	b.ReportMetric(float64(last.Instants), "instants")
}

func BenchmarkExhaustiveFromBoot(b *testing.B) {
	nm, opts := benchSetup(b)
	// Collect the instant set once, untimed, with the forked explorer.
	var instants []uint64
	if _, err := snapshot.Explore(nm, opts, func(o snapshot.Outcome) bool {
		instants = append(instants, o.Instant)
		return true
	}); err != nil {
		b.Fatal(err)
	}
	if len(instants) == 0 {
		b.Fatal("no instants to enumerate")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range instants {
			m, err := nm(power.NewAt(t), nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(instants)), "instants")
}
