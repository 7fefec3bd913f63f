// Package snapshot implements exhaustive crash-instant exploration via
// copy-on-write machine forking.
//
// The re-run-from-boot way to test every power-failure instant of an E-cycle
// program costs O(E) per instant — O(E²) total. This package exploits a
// simple identity instead: a failure-free run's machine state at cycle c is
// byte-identical to the state of a from-boot run under power.At(t) at cycle
// c, for every t > c, because the failure has not fired yet and schedules are
// only consulted for the *next* instant. So one shared prefix machine runs
// failure-free from boot, pausing at every checkpoint/commit boundary; for
// each crash instant t inside the window that follows, a copy-on-write fork
// of the paused machine is driven to completion under power.At(t). Every
// fork pays only its own suffix, the prefix is simulated once, and NVM pages
// are shared copy-on-write (internal/mem), so a fork's footprint is the
// pages it actually touches.
//
// Equivalence with from-boot runs is not an approximation. The fork copies
// the register file, cycle counter, run outputs, and metrics by value; the
// memory system replicates itself behind sim.Forkable (deep-copied cache,
// trackers and checkpoint position over the forked NVM space); and the
// fork's next-failure instant is recomputed from its own schedule. The
// harness test suite compares fork-vs-boot results, error strings, and final
// NVM bytes across every benchmark and system.
package snapshot

import (
	"fmt"

	"nacho/internal/emu"
	"nacho/internal/power"
	"nacho/internal/sim"
	"nacho/internal/telemetry"
)

// NewMachine builds a fresh from-boot machine executing the workload under
// the given failure schedule with the given probe (nil for none). Explore
// calls it twice — once for the boundary-scouting pass, once for the shared
// prefix machine — and requires the returned machines to be deterministic:
// two machines from the same factory must replay identically.
type NewMachine func(sched power.Schedule, probe sim.Probe) (*emu.Machine, error)

// Options tunes one exploration.
type Options struct {
	// Windows caps how many checkpoint windows are enumerated; 0 enumerates
	// every window up to program halt.
	Windows int
	// SkipWindows fast-forwards the shared prefix past this many windows
	// before enumeration starts. The skipped prefix is still simulated only
	// once — deep windows are exactly where forking beats from-boot hardest.
	SkipWindows int
	// Stride enumerates every Stride-th crash instant within a window
	// (default 1: every instruction-granular instant).
	Stride uint64
	// Span, when non-zero, parents the SpanWindow spans this exploration
	// emits on the campaign tracer (one per enumerated window); zero attaches
	// them to the tracer's ambient span.
	Span telemetry.SpanID
}

// Outcome is the completed run of one forked crash instant.
type Outcome struct {
	// Instant is the cycle at which the injected power failure fires.
	Instant uint64
	// Res is the fork's run result (exit code, results, output, counters,
	// final registers).
	Res emu.Result
	// Err is the fork's run error (nil for a clean halt). Compare with
	// errors.Is / error strings exactly as for a from-boot run.
	Err error
	// Sys is the fork's memory system, for final-NVM inspection.
	Sys sim.System
}

// Stats reports the work an exploration did, in simulated cycles, and the
// measured advantage over re-running every instant from boot.
type Stats struct {
	Windows  int // checkpoint windows enumerated
	Instants int // crash instants executed

	ScoutCycles  uint64 // boundary-scouting pass (one failure-free run)
	PrefixCycles uint64 // shared prefix machine's total advance
	ForkCycles   uint64 // sum over forks of (final cycle - fork cycle)
	BootCycles   uint64 // sum over forks of final cycle = from-boot cost
}

// SimCycles is the total simulation work the exploration actually paid.
func (s Stats) SimCycles() uint64 { return s.ScoutCycles + s.PrefixCycles + s.ForkCycles }

// Speedup is the ratio of from-boot enumeration cost to actual cost.
func (s Stats) Speedup() float64 {
	if s.SimCycles() == 0 {
		return 0
	}
	return float64(s.BootCycles) / float64(s.SimCycles())
}

// scoutProbe records checkpoint-interval boundaries and the halt cycle
// during the scouting pass. JIT saves (ReplayCache's failure-time state
// dump) are not interval boundaries and cannot occur failure-free anyway;
// region ends and commits (forced or not) are.
type scoutProbe struct {
	sim.NopProbe
	commits []uint64
	halt    uint64
	halted  bool
}

func (s *scoutProbe) OnCheckpointCommit(ev sim.CheckpointEvent) {
	if ev.Kind == sim.CheckpointJIT {
		return
	}
	s.commits = append(s.commits, ev.Cycle)
}

func (s *scoutProbe) OnAccess(ev sim.AccessEvent) {
	if ev.Class == sim.AccessMMIO && ev.Store && ev.Addr == emu.ExitAddr {
		s.halt = ev.Cycle
		s.halted = true
	}
}

// Explore enumerates crash instants window by window, calling visit with
// each fork's outcome in strictly increasing instant order. visit returning
// false stops the exploration early (the partial Stats are still returned).
//
// A window is the half-open instant range (b1, b2] between consecutive
// checkpoint/commit boundaries (with boot and the halt instant as the outer
// boundaries): a failure at instant t in that range always rolls back to the
// checkpoint at or before b1, so the prefix machine paused at b1 is the
// deepest shareable state for the whole window.
func Explore(newMachine NewMachine, opts Options, visit func(Outcome) bool) (Stats, error) {
	var stats Stats
	defer func() { recordExploration(stats) }()
	if opts.Stride == 0 {
		opts.Stride = 1
	}

	// Scout: one failure-free probed run finds every boundary and the halt
	// instant. Instants past the halting store cannot fire (the final flush
	// runs failure-deferred), so the halt cycle closes the last window.
	sc := &scoutProbe{}
	sm, err := newMachine(power.None{}, sc)
	if err != nil {
		return stats, fmt.Errorf("snapshot: scout machine: %w", err)
	}
	sres, serr := sm.Run()
	stats.ScoutCycles = sres.Counters.Cycles
	end := sres.Counters.Cycles
	if serr == nil && sc.halted {
		end = sc.halt
	}
	if end == 0 {
		return stats, nil
	}

	pm, err := newMachine(power.None{}, nil)
	if err != nil {
		return stats, fmt.Errorf("snapshot: prefix machine: %w", err)
	}

	targets := make([]uint64, 0, len(sc.commits)+1)
	for _, k := range sc.commits {
		if k < end {
			targets = append(targets, k)
		}
	}
	targets = append(targets, end)

	skipped := 0
	cur := uint64(0)
	for _, target := range targets {
		if pm.Halted() || cur >= end {
			break
		}
		if opts.Windows > 0 && stats.Windows >= opts.Windows {
			break
		}
		if target <= cur {
			continue // two boundaries inside one instruction
		}
		var base *emu.Machine
		if skipped >= opts.SkipWindows {
			// Freeze the window's fork base before advancing the prefix.
			if base, err = pm.Fork(power.None{}); err != nil {
				return stats, fmt.Errorf("snapshot: fork base: %w", err)
			}
		}
		if _, err := pm.RunUntil(target); err != nil {
			return stats, fmt.Errorf("snapshot: prefix run to %d: %w", target, err)
		}
		stop := pm.Now()
		if stop > end {
			stop = end
		}
		stats.PrefixCycles = pm.Now()
		if base == nil {
			skipped++
			cur = stop
			continue
		}

		before := stats.Instants
		ws := telemetry.ActiveTracer().Begin(opts.Span, telemetry.SpanWindow, "", "", "")
		more, err := exploreWindow(base, cur, stop, opts.Stride, &stats, visit)
		fanOut := uint64(stats.Instants - before)
		windowInstants.Observe(fanOut)
		telemetry.ActiveTracer().End(ws, fanOut, cur+1, err != nil)
		if err != nil || !more {
			return stats, err
		}
		stats.Windows++
		cur = stop
	}
	return stats, nil
}

// exploreWindow forks and runs every stride-th instant in (from, to] off
// base on the caller's goroutine, visiting each outcome before the next fork
// runs. A campaign fans out across seeds, not instants.
func exploreWindow(base *emu.Machine, from, to, stride uint64, stats *Stats, visit func(Outcome) bool) (bool, error) {
	for t := from + 1; t <= to; t += stride {
		f, err := base.Fork(power.NewAt(t))
		if err != nil {
			return false, fmt.Errorf("snapshot: fork at %d: %w", t, err)
		}
		res, rerr := f.Run()
		stats.Instants++
		stats.BootCycles += res.Counters.Cycles
		stats.ForkCycles += res.Counters.Cycles - from
		if !visit(Outcome{Instant: t, Res: res, Err: rerr, Sys: f.System()}) {
			return false, nil
		}
	}
	return true, nil
}
