package harness_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nacho/internal/harness"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/systems"
)

// goldenBytes loads a pre-refactor report snapshot from testdata.
func goldenBytes(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReportsMatchPreRefactorGoldens is the probe refactor's byte-identity
// regression gate: Figure 5 and Table 3 must render exactly the bytes the
// pre-probe wiring produced (goldens generated at commit time with one
// worker). The experiment runs execute with the verifier attached — as a
// probe now, as a hardwired observer then — so any drift in event routing,
// emission order, or cycle accounting shows up here. The run cache starts
// empty so the reports come from execution.
func TestReportsMatchPreRefactorGoldens(t *testing.T) {
	prev := harness.SetWorkers(1)
	defer harness.SetWorkers(prev)
	harness.ResetRunCache()

	fig5, err := harness.RunNamedExperiment("fig5", []string{"crc", "sha", "towers"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fig5.String(), goldenBytes(t, "fig5_golden.txt"); got != want {
		t.Errorf("Fig5 output drifted from pre-refactor golden:\ngot:\n%s\nwant:\n%s", got, want)
	}

	table3, err := harness.RunNamedExperiment("table3", []string{"crc", "towers", "quicksort"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := table3.String(), goldenBytes(t, "table3_golden.txt"); got != want {
		t.Errorf("Table3 output drifted from pre-refactor golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestProbeAttachmentDoesNotPerturbRuns asserts attaching an observer leaves
// the simulation bit-for-bit unchanged: counters (cycles included) and the
// result word must match between a probed and an unprobed run.
func TestProbeAttachmentDoesNotPerturbRuns(t *testing.T) {
	for _, kind := range systems.AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			p, ok := program.ByName("crc")
			if !ok {
				t.Fatal("crc benchmark missing")
			}
			cfg := harness.DefaultRunConfig()
			plain, err := harness.Run(p, kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Probe = &sim.IntervalStats{}
			probed, err := harness.Run(p, kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Result != probed.Result {
				t.Errorf("result word changed under probing: %08x vs %08x", plain.Result, probed.Result)
			}
			if diff := plain.Counters.Diff(probed.Counters); len(diff) != 0 {
				t.Errorf("counters changed under probing: %v", diff)
			}
		})
	}
}

// TestCounterProbeMatchesDirectCounters is the stream-completeness property:
// on a failure-free run, a metrics.Counters derived purely from probe events
// must equal the directly-maintained production counters, for every
// benchmark under every system. Cycles, Instructions, Loads, Stores,
// CacheHits and CacheMisses are the intentional exceptions: the emulator
// stamps Cycles from its clock at end of run, retired instructions are not
// probe events (TestTraceCompleteness checks the instruction count against
// the trace instead), and neither are CPU data accesses (the emulator hands
// them to the verifier; emu's TestVerifierSeesWhatTheCPUReceived checks
// that it sees them).
//
// (Under power failures the two can legitimately diverge: events are emitted
// for *completed* actions, so an action cut down mid-flight by a failure has
// charged cycles but emitted nothing. The commit counters are the
// exception, which TestCommitCountersMatchUnderFailures pins.)
func TestCounterProbeMatchesDirectCounters(t *testing.T) {
	for _, p := range program.All() {
		for _, kind := range systems.AllKinds() {
			p, kind := p, kind
			t.Run(p.Name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				cfg := harness.DefaultRunConfig()
				cp := sim.NewCounterProbe()
				cfg.Probe = cp
				res, err := harness.Run(p, kind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				derived := cp.Counters()
				derived.Cycles = res.Counters.Cycles
				derived.Instructions = res.Counters.Instructions
				derived.Loads, derived.Stores = res.Counters.Loads, res.Counters.Stores
				derived.CacheHits, derived.CacheMisses = res.Counters.CacheHits, res.Counters.CacheMisses
				if diff := derived.Diff(res.Counters); len(diff) != 0 {
					t.Errorf("probe-derived counters diverge from direct counters:\n  %v", diff)
				}
			})
		}
	}
}

// TestCommitCountersMatchUnderFailures is the stream-completeness property's
// failure-schedule case: the checkpoint store counts and announces each
// commit at its commit word, so the direct commit counters equal those a
// CounterProbe derives from the commit events even when failures cut
// checkpoints short in their redo phase. It runs towers under 0.05 ms
// periodic failures, with the forced checkpoint at half the period, on every
// system that keeps a checkpoint store, and on NACHO with the adaptive
// policy (DirtyThreshold 4), with and without EnergyPrediction. The
// volatile baseline is left out: it has no store, and since every failure
// restarts it from boot it never finishes under this schedule.
func TestCommitCountersMatchUnderFailures(t *testing.T) {
	type variant struct {
		kind      systems.Kind
		threshold int
		predict   bool
	}
	var variants []variant
	for _, kind := range systems.AllKinds() {
		if kind != systems.KindVolatile {
			variants = append(variants, variant{kind: kind})
		}
	}
	variants = append(variants, variant{systems.KindNACHO, 4, false}, variant{systems.KindNACHO, 4, true})
	p, ok := program.ByName("towers")
	if !ok {
		t.Fatal("towers benchmark missing")
	}
	for _, v := range variants {
		v := v
		t.Run(fmt.Sprintf("%s/threshold=%d/predict=%v", v.kind, v.threshold, v.predict), func(t *testing.T) {
			t.Parallel()
			cfg := harness.DefaultRunConfig()
			period := cfg.Cost.CyclesForMillis(0.05)
			cfg.Schedule = power.Periodic{Period: period}
			cfg.ForcedCheckpointPeriod = period / 2
			cfg.DirtyThreshold, cfg.EnergyPrediction = v.threshold, v.predict
			cp := sim.NewCounterProbe()
			cfg.Probe = cp
			res, err := harness.Run(p, v.kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.PowerFailures == 0 {
				t.Fatal("expected power failures")
			}
			if v.threshold > 0 && res.Counters.AdaptiveCkpts == 0 {
				t.Fatal("expected adaptive checkpoints")
			}
			got, want := res.Counters, cp.Counters()
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Checkpoints", got.Checkpoints, want.Checkpoints},
				{"CheckpointLines", got.CheckpointLines, want.CheckpointLines},
				{"MaxCheckpointLines", got.MaxCheckpointLines, want.MaxCheckpointLines},
				{"ForcedCkpts", got.ForcedCkpts, want.ForcedCkpts},
				{"AdaptiveCkpts", got.AdaptiveCkpts, want.AdaptiveCkpts},
				{"IntervalHist", got.IntervalHist, want.IntervalHist},
			} {
				if f.got != f.want {
					t.Errorf("%s: direct %v, from commit events %v", f.name, f.got, f.want)
				}
			}
		})
	}
}

// TestVerifierAsProbeUnderFailures is the refactor's end-to-end safety net:
// the verifier sees the run's write-backs, commits and power failures
// through the probe pipeline, sharing it with other observers, and its CPU
// accesses from the emulator. Every benchmark on every recovering system,
// with periodic power failures injected, must still finish with shadow-memory
// equality, zero unrepaired WAR violations, and the reference checksum
// (harness.Run enforces all three), with a second probe attached alongside.
func TestVerifierAsProbeUnderFailures(t *testing.T) {
	kinds := []systems.Kind{
		systems.KindClank, systems.KindPROWL, systems.KindReplayCache,
		systems.KindNaiveNACHO, systems.KindNACHO, systems.KindOracleNACHO,
		systems.KindNACHOPW, systems.KindNACHOST, systems.KindWriteThrough,
	}
	for _, p := range program.All() {
		for _, kind := range kinds {
			p, kind := p, kind
			t.Run(p.Name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				cfg := harness.DefaultRunConfig()
				const onDuration = 60_000
				cfg.Schedule = power.Periodic{Period: onDuration}
				cfg.ForcedCheckpointPeriod = onDuration / 2
				cfg.Probe = &sim.IntervalStats{}
				res, err := harness.Run(p, kind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Counters.PowerFailures == 0 {
					t.Fatal("expected at least one power failure")
				}
			})
		}
	}
}
