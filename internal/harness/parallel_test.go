package harness_test

import (
	"regexp"
	"testing"

	"nacho/internal/harness"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// TestParallelMatchesSequential is the harness determinism contract: a
// Figure 5 + Table 3 regeneration fanned across eight workers must be
// byte-identical — text and CSV — to the single-worker run. Both start from
// an empty run cache, so both execute. ci.sh runs this package under -race,
// which additionally exercises the worker pool and the singleflight cache
// for data races.
func TestParallelMatchesSequential(t *testing.T) {
	benches := []string{"crc", "sha"}
	regen := func(workers int) (fig5, table3 *harness.Report) {
		prev := harness.SetWorkers(workers)
		defer harness.SetWorkers(prev)
		harness.ResetRunCache()
		fig5, err := harness.RunNamedExperiment("fig5", benches)
		if err != nil {
			t.Fatal(err)
		}
		table3, err = harness.RunNamedExperiment("table3", benches)
		if err != nil {
			t.Fatal(err)
		}
		return fig5, table3
	}
	seq5, seq3 := regen(1)
	par5, par3 := regen(8)

	for _, c := range []struct {
		name     string
		seq, par *harness.Report
	}{{"fig5", seq5, par5}, {"table3", seq3, par3}} {
		if got, want := c.par.String(), c.seq.String(); got != want {
			t.Errorf("%s: parallel text differs from sequential:\n--- sequential\n%s--- parallel\n%s", c.name, want, got)
		}
		if got, want := c.par.CSV(), c.seq.CSV(); got != want {
			t.Errorf("%s: parallel CSV differs from sequential", c.name)
		}
		if c.par.Timing == "" || c.seq.Timing == "" {
			t.Errorf("%s: timing summary missing", c.name)
		}
	}
}

// TestTimingCountsWorkerInvariant pins the Timing line's counts to the same
// values at every worker count, across experiments that share one run cache:
// a hit is a repeat request, never the assembly pass's first read of a
// prewarmed cell. Figures 6 and 7 plot subsets of Figure 5's matrix, so after
// it they execute nothing and serve every request from its runs; Table 2
// requests its failure-free baselines, which Figure 5 ran, once per
// on-duration.
func TestTimingCountsWorkerInvariant(t *testing.T) {
	counts := regexp.MustCompile(`^timing: (\d+) runs \((\d+) cache hits\)`)
	earlier := regexp.MustCompile(`; (\d+) cache hits served by runs of earlier experiments`)
	regen := func(workers int) map[string]string {
		prev := harness.SetWorkers(workers)
		defer harness.SetWorkers(prev)
		harness.ResetRunCache()
		out := map[string]string{}
		for _, exp := range []string{"fig5", "fig6", "fig7", "table2"} {
			rep, err := harness.RunNamedExperiment(exp, []string{"crc", "sha"})
			if err != nil {
				t.Fatal(err)
			}
			m := counts.FindStringSubmatch(rep.Timing)
			if m == nil {
				t.Fatalf("%s: timing line %q lacks the runs/hits prefix", exp, rep.Timing)
			}
			out[exp] = m[0] + earlier.FindString(rep.Timing)
			switch exp {
			case "fig6", "fig7":
				if m[1] != "0" || !earlier.MatchString(rep.Timing) {
					t.Errorf("%s executed runs or served none from fig5's: %q", exp, rep.Timing)
				}
			case "table2":
				if m[2] == "0" {
					t.Errorf("table2 reported no cache hits: %q", rep.Timing)
				}
			}
		}
		return out
	}
	seq, par := regen(1), regen(4)
	for exp, want := range seq {
		if got := par[exp]; got != want {
			t.Errorf("%s: 4 workers print %q, 1 worker %q", exp, got, want)
		}
	}
}

// TestSharedScheduleDeterminism is the Schedule reuse property the X6
// variance experiment depends on: running twice with the *same* stateful
// schedule value must give bit-identical counters (the harness clones the
// schedule per run), and must leave the caller's schedule value unconsumed.
func TestSharedScheduleDeterminism(t *testing.T) {
	p, ok := program.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	for _, seed := range []int64{1, 7, 42} {
		sched := power.NewUniform(5_000, 80_000, seed)
		cfg := harness.DefaultRunConfig()
		cfg.Schedule = sched
		cfg.ForcedCheckpointPeriod = 2_500
		a, err := harness.Run(p, systems.KindNACHO, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := harness.Run(p, systems.KindNACHO, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Counters != b.Counters {
			t.Errorf("seed %d: two runs with one schedule value diverged:\n%+v\n%+v", seed, a.Counters, b.Counters)
		}
		// The runs used clones; the caller's schedule must still sit at the
		// start of its sequence.
		if got, want := sched.NextFailureAfter(0), power.NewUniform(5_000, 80_000, seed).NextFailureAfter(0); got != want {
			t.Errorf("seed %d: harness consumed the caller's schedule state (first failure %d, want %d)", seed, got, want)
		}
	}
}
