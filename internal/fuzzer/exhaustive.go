package fuzzer

import (
	"fmt"

	"nacho/internal/emu"
	"nacho/internal/harness"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/snapshot"
	"nacho/internal/systems"
)

// Exhaustive mode replaces the randomized failure schedules with exhaustive
// crash-instant enumeration: every instruction-granular power-failure
// instant in the first Intervals checkpoint intervals is executed, via
// copy-on-write snapshot forks (internal/snapshot) so the shared prefix is
// simulated once instead of once per instant. Any divergent fork is
// confirmed by a from-boot run under the same one-instant schedule — with
// the verifier attached — before it is reported, so every exhaustive
// finding carries a replayable schedule and the usual WAR/shadow
// classification.

// ExhaustiveConfig parameterizes exhaustive crash-instant exploration.
type ExhaustiveConfig struct {
	Oracle Config
	// Intervals is how many checkpoint intervals to enumerate per
	// (program, system) pair (default 2).
	Intervals int
	// Stride enumerates every Stride-th crash instant (default 1: all of
	// them).
	Stride uint64
}

func (c ExhaustiveConfig) normalized() ExhaustiveConfig {
	c.Oracle = c.Oracle.normalized()
	if c.Intervals == 0 {
		c.Intervals = 2
	}
	if c.Stride == 0 {
		c.Stride = 1
	}
	return c
}

// ExhaustiveStats aggregates the exploration work across systems, in
// simulated cycles. BootCycles is what re-running every enumerated instant
// from boot would have cost; SimCycles is what the forked enumeration
// actually paid.
type ExhaustiveStats struct {
	Systems    int
	Windows    int
	Instants   int
	SimCycles  uint64
	BootCycles uint64
}

// add folds o into s: one system's exploration, or one seed's stats into a
// campaign's.
func (s *ExhaustiveStats) add(o ExhaustiveStats) {
	s.Systems += o.Systems
	s.Windows += o.Windows
	s.Instants += o.Instants
	s.SimCycles += o.SimCycles
	s.BootCycles += o.BootCycles
}

// Speedup is the measured advantage over re-run-from-boot enumeration.
func (s ExhaustiveStats) Speedup() float64 {
	if s.SimCycles == 0 {
		return 0
	}
	return float64(s.BootCycles) / float64(s.SimCycles)
}

// CheckExhaustive runs the exhaustive oracle for one generated program
// across the given systems: the failure-free differential first (also
// measuring the runtime that sets the budget), then every Stride-th crash
// instant in the first Intervals checkpoint intervals. At most one finding
// per system is reported — the earliest divergent instant.
func CheckExhaustive(prog *Prog, kinds []systems.Kind, cfg ExhaustiveConfig) ([]Finding, ExhaustiveStats, error) {
	cfg = cfg.normalized()
	var stats ExhaustiveStats
	img, g, err := prepare(prog, cfg.Oracle)
	if err != nil {
		return nil, stats, err
	}
	var out []Finding
	for _, kind := range kinds {
		f, err := checkSystemExhaustive(img, g, prog, kind, cfg, &stats)
		if err != nil {
			return out, stats, err
		}
		if f != nil {
			findingsTotal.Add(1)
			out = append(out, *f)
		}
	}
	return out, stats, nil
}

// checkSystemExhaustive enumerates one system's crash instants off a shared
// snapshot-forked prefix, stopping at the first confirmed divergence. The
// window spans parent to the oracle's span, the seed's cell span in a
// campaign.
func checkSystemExhaustive(img *program.Image, g *goldenRun, prog *Prog, kind systems.Kind, cfg ExhaustiveConfig, stats *ExhaustiveStats) (*Finding, error) {
	fc, sysCycles := differential(img, g, kind, cfg.Oracle, nil)
	if fc != nil {
		return fc.finding(prog, kind), nil
	}
	budget := failureBudget(sysCycles, 1)

	var (
		finding *Finding
		vErr    error
	)
	st, err := snapshot.Explore(forkMachines(img, kind, cfg.Oracle, budget), snapshot.Options{
		Windows: cfg.Intervals,
		Stride:  cfg.Stride,
		Span:    cfg.Oracle.Span,
	}, func(o snapshot.Outcome) bool {
		if diffAgainstGolden(o.Res, o.Err, o.Sys.Mem(), g, budget) == nil {
			return true
		}
		// Confirm from boot under the same one-instant schedule, verifier
		// attached: the replayable ground truth, plus the WAR/shadow
		// classification a probe-free fork cannot see.
		cfc, _ := checkOne(img, g, kind, power.NewAt(o.Instant), budget, cfg.Oracle)
		if cfc == nil {
			vErr = fmt.Errorf("fuzzer: seed %d on %s: forked run at instant %d diverged but its from-boot replay did not — snapshot-fork equivalence violated", prog.Seed, kind, o.Instant)
			return false
		}
		finding = &Finding{Seed: prog.Seed, System: kind, Kind: cfc.kind, Detail: cfc.detail, Prog: prog, Schedule: []uint64{o.Instant}}
		return false
	})
	oracleRuns.Add(uint64(st.Instants))
	stats.add(ExhaustiveStats{Systems: 1, Windows: st.Windows, Instants: st.Instants,
		SimCycles: st.SimCycles(), BootCycles: st.BootCycles})
	if err != nil {
		return nil, fmt.Errorf("fuzzer: seed %d on %s: %w", prog.Seed, kind, err)
	}
	if vErr != nil {
		return nil, vErr
	}
	return finding, nil
}

// forkMachines is the explorer's machine factory for kind: the oracle's run
// configuration under the given cycle budget, without a verifier (forked
// outcomes are compared differentially), observed by the explorer's probe.
func forkMachines(img *program.Image, kind systems.Kind, cfg Config, budget uint64) snapshot.NewMachine {
	base := baseConfig(cfg)
	base.MaxCycles = budget
	return func(sched power.Schedule, probe sim.Probe) (*emu.Machine, error) {
		rc := base
		rc.Schedule = sched
		rc.Probe = probe
		m, _, err := harness.BuildMachine(img, kind, rc)
		return m, err
	}
}
