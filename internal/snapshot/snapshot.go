// Package snapshot implements exhaustive crash-instant exploration: every
// power-failure instant of a program's first checkpoint windows is run to
// completion, for the cost of one post-failure tail per distinct
// post-reboot state rather than one run per instant.
//
// Re-running every instant of an E-cycle program from boot costs O(E) per
// instant, O(E²) in all. Two identities cut that down.
//
// The prefix is shared. A failure-free run's machine state at an instruction
// boundary c is identical to a from-boot run's under power.At(t) at c, for
// every t > c: the failure has not fired yet, and a schedule is consulted
// only for the next instant. So one prefix machine runs failure-free from
// boot and walks each window an instruction at a time. For each instant t it
// is forked at a boundary before the instruction t falls in, armed with
// power.At(t), and the fork runs to t, fails and reboots (emu.Machine's
// RunUntil returns right after the reboot). No fork re-runs more than the
// instructions between the previous instant's failing instruction and its
// own. NVM pages are shared copy-on-write (internal/mem), so a fork costs
// the pages it writes.
//
// Tails are shared. A power failure keeps only NVM, the outputs emitted so
// far and what the system's PowerFailure leaves, so many instants reboot
// into the same state, offset in time, and run the same tail. The explorer
// keeps the current class's post-reboot machine paused and compares each
// new fork with it by exact equality (emu.Machine.EqualState: every field
// that can steer the rest of the run, cycle-valued fields relative to the
// clock; never a hash). An equal fork takes the class's outcome, shifted by
// the difference in reboot cycles. Any other fork starts a new class: it is
// kept paused, and its tail runs on a fork of it. A shifted outcome that
// would reach the cycle budget or the instruction limit, which fire at
// absolute counts, is run in full instead. A fork is compared only with the
// current class: on the rollback systems equal post-reboot states come in
// runs of consecutive instants, while ReplayCache resumes in place, so each
// of its instants is a class of its own.
//
// Equivalence with from-boot runs is not an approximation. A fork copies the
// register file, clock, outputs and counters by value; the memory system
// replicates itself (sim.System.Fork: cache lines, trackers and checkpoint
// position copied over the forked NVM space); the fork's next failure is
// recomputed from its own schedule; and a reused outcome stands for a tail
// from a state equal to its class's. The tests referee every instant, at
// full density on small programs, against a from-boot run under the same
// one-instant schedule.
//
// A crash instant costs what it touches. The explorer releases every
// machine's system (sim.System.Release) once nothing reads it: the scout as
// soon as it has found the boundaries; a fork that took its class's outcome,
// or re-ran a tail for a budget, once its outcome has been visited; a class's
// paused machine and tail system when the next class replaces it, since
// every outcome that shared them has been visited; and the last class and
// the prefix machine when Explore returns. A released fork gives its NVM
// leaves back, so the prefix machine owns them again and writes them in
// place, and its cache storage and trackers return to the free lists the
// next fork's copies draw from.
package snapshot

import (
	"fmt"
	"reflect"

	"nacho/internal/emu"
	"nacho/internal/metrics"
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

// Outcome is the completed run of one crash instant.
//
// A fresh outcome (Reused false) is the run of its own tail, and equals a
// from-boot run under power.At(Instant) in every field. A reused outcome is
// its class's, and only these fields are exact: Err, Res.ExitCode,
// Res.Result, Res.Results, Res.Output, Res.FinalRegs, Sys, and Res.Counters'
// Cycles and Instructions, which are shifted to this instant. Every other
// counter is zero: the first post-reboot IntervalHist bucket, for one,
// depends on the absolute cycle. Res's slices and Sys are shared with the
// class and must be treated as read-only.
//
// Sys belongs to the visitor only until visit returns: the explorer releases
// it once no later outcome shares it, so read its final memory inside visit.
// Res's slices are not recycled and may be kept.
type Outcome struct {
	// Instant is the cycle at which the injected power failure fires.
	Instant uint64
	// Res is the run's result (exit code, results, output, counters, final
	// registers).
	Res emu.Result
	// Err is the run's error (nil for a clean halt). Compare with
	// errors.Is / error strings exactly as for a from-boot run.
	Err error
	// Sys is the run's memory system, for final-NVM inspection until visit
	// returns.
	Sys sim.System
	// Reused reports that the instant's post-reboot state equalled its
	// class's, so the outcome is the class's, shifted, and no tail ran.
	Reused bool
}

// Diff returns the first way o differs from a from-boot run under
// power.At(o.Instant) that returned res and err, or "" when it does not: in
// the error string and then in every field of a fresh outcome's result, or
// the exact fields of a reused one's. Final NVM is the caller's to compare,
// through Sys.
func (o Outcome) Diff(res emu.Result, err error) string {
	if a, b := errString(o.Err), errString(err); a != b {
		return fmt.Sprintf("error %q, from boot %q", a, b)
	}
	want := res
	if o.Reused {
		want.Counters = metrics.Counters{Cycles: res.Counters.Cycles, Instructions: res.Counters.Instructions}
	}
	if !reflect.DeepEqual(o.Res, want) {
		return fmt.Sprintf("result %+v, from boot %+v", o.Res, want)
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Stats reports the work an exploration did, in simulated cycles, and the
// measured advantage over re-running every instant from boot.
type Stats struct {
	Windows  int // checkpoint windows enumerated
	Instants int // crash instants visited: Tails + Reused
	Tails    int // post-failure tails run: one per class, plus Reruns
	Reused   int // instants that took their class's outcome
	Reruns   int // instants of a class run in full because a budget would fire

	ScoutCycles  uint64 // boundary-scouting pass (one failure-free run)
	PrefixCycles uint64 // shared prefix machine's total advance
	ForkCycles   uint64 // cycles forks simulated: up to each reboot, and each tail
	BootCycles   uint64 // sum over instants of final cycle = from-boot cost
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

// scoutProbe records checkpoint-interval boundaries during the scouting
// pass. JIT saves (ReplayCache's failure-time state dump) are not interval
// boundaries and cannot occur failure-free anyway; region ends and commits
// (forced or not) are.
type scoutProbe struct {
	sim.NopProbe
	commits []uint64
}

func (s *scoutProbe) OnCheckpointCommit(ev sim.CheckpointEvent) {
	if ev.Kind == sim.CheckpointJIT {
		return
	}
	s.commits = append(s.commits, ev.Cycle)
}

// Explore enumerates crash instants window by window, calling visit with
// each instant's outcome in strictly increasing instant order. visit
// returning false stops the exploration early (the partial Stats are still
// returned). Every machine Explore builds or forks has its system released
// before Explore returns, whatever the exit.
//
// A window is the half-open instant range (b1, b2] between consecutive
// checkpoint/commit boundaries, with boot and the halt instant as the outer
// boundaries; b2 is the prefix's first instruction boundary at or past the
// scout's commit. The prefix machine walks each window, and every instant is
// forked from it just before the instruction the failure strikes in.
func Explore(newMachine NewMachine, opts Options, visit func(Outcome) bool) (Stats, error) {
	var stats Stats
	defer func() { recordExploration(stats) }()
	if opts.Stride == 0 {
		opts.Stride = 1
	}

	// Scout: one failure-free probed run finds every boundary and the halt
	// instant. RunUntil stops at the halt, before the final flush; instants
	// past it cannot fire (the flush runs failure-deferred), so the halt
	// cycle closes the last window. Run then performs the flush.
	sc := &scoutProbe{}
	sm, err := newMachine(power.None{}, sc)
	if err != nil {
		return stats, fmt.Errorf("snapshot: scout machine: %w", err)
	}
	halted, err := sm.RunUntil(power.NoFailure)
	end := sm.Now()
	if err == nil && halted {
		_, _ = sm.Run() // a halted machine only flushes: nothing can fail
	}
	stats.ScoutCycles = sm.Now()
	sm.System().Release()
	if end == 0 {
		return stats, nil
	}

	pm, err := newMachine(power.None{}, nil)
	if err != nil {
		return stats, fmt.Errorf("snapshot: prefix machine: %w", err)
	}
	x := &explorer{pm: pm, stride: opts.Stride, stats: &stats, visit: visit}
	defer x.release()

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
		if skipped < opts.SkipWindows {
			if err := x.advance(target); err != nil {
				return stats, err
			}
			skipped++
			cur = min(pm.Now(), end)
			continue
		}

		before := stats.Instants
		ws := telemetry.ActiveTracer().Begin(opts.Span, telemetry.SpanWindow, "", "", "")
		more, err := x.window(cur, target, end)
		fanOut := uint64(stats.Instants - before)
		windowInstants.Observe(fanOut)
		telemetry.ActiveTracer().End(ws, fanOut, cur+1, err != nil)
		if err != nil || !more {
			return stats, err
		}
		stats.Windows++
		cur = min(pm.Now(), end)
	}
	return stats, nil
}

// explorer is one exploration's walk: the prefix machine and the current
// class of equal post-reboot states.
type explorer struct {
	pm     *emu.Machine
	stride uint64
	stats  *Stats
	visit  func(Outcome) bool
	class  *class
}

// class is the instants whose post-reboot states equal its first member's:
// that member's machine, paused right after its reboot, and its tail's
// outcome.
type class struct {
	rep     *emu.Machine
	reboot  uint64 // rep's clock at the end of its reboot
	retired uint64 // instructions rep had retired
	res     emu.Result
	err     error
	sys     sim.System
}

// release gives back the class's paused machine and its tail's system; a
// nil class holds neither.
func (c *class) release() {
	if c != nil {
		c.rep.System().Release()
		c.sys.Release()
	}
}

// release gives back the prefix machine and the current class, at
// Explore's exit.
func (x *explorer) release() {
	x.pm.System().Release()
	x.class.release()
}

// advance runs the prefix machine to its first instruction boundary at or
// past cycle to.
func (x *explorer) advance(to uint64) error {
	_, err := x.pm.RunUntil(to)
	x.stats.PrefixCycles = x.pm.Now()
	if err != nil {
		return fmt.Errorf("snapshot: prefix run to %d: %w", to, err)
	}
	return nil
}

// window visits every stride-th instant in (from, stop], where stop is the
// prefix's first instruction boundary at or past target, clamped to end. The
// prefix walks the window as it goes and is left paused at stop.
func (x *explorer) window(from, target, end uint64) (bool, error) {
	pm := x.pm
	for t := from + 1; t <= end; t += x.stride {
		sched := power.NewAt(t)
		f := pm.Fork(sched)
		// The fork returns right after t's reboot; past target, it
		// returns at stop instead when t lies beyond the window.
		_, err := f.RunUntil(min(t, target))
		x.stats.ForkCycles += f.Now() - pm.Now()
		if err != nil {
			f.System().Release()
			return false, fmt.Errorf("snapshot: fork to instant %d: %w", t, err)
		}
		if f.Now() < t {
			f.System().Release()
			break
		}
		failed := f.Retired()
		o, kept := x.outcome(t, sched, f)
		more := x.visit(o)
		if !kept {
			f.System().Release()
		}
		if !more {
			return false, nil
		}
		// The failure struck inside instruction number failed or after it
		// retired, so the boundary before that instruction precedes t and
		// every later instant.
		for pm.Retired()+1 < failed {
			if err := x.advance(pm.Now() + 1); err != nil {
				return false, err
			}
		}
	}
	return true, x.advance(target)
}

// outcome completes instant t from its fork f, paused right after the
// failure's reboot: from the current class when f's state equals the
// class's, else by running f's tail on a fork of f, which becomes the new
// class and releases the old one. kept reports that f became the new
// class's machine; otherwise f is the caller's to release once the outcome
// has been visited.
func (x *explorer) outcome(t uint64, sched power.Schedule, f *emu.Machine) (o Outcome, kept bool) {
	o.Instant = t
	if c := x.class; c != nil && f.EqualState(c.rep) {
		if res, ok := c.shift(f); ok {
			x.stats.Reused++
			o.Res, o.Err, o.Sys, o.Reused = res, c.err, c.sys, true
		} else {
			x.stats.Reruns++
			o.Res, o.Err = x.tail(f)
			o.Sys = f.System()
		}
	} else {
		tm := f.Fork(sched)
		o.Res, o.Err = x.tail(tm)
		o.Sys = tm.System()
		x.class.release()
		x.class = &class{rep: f, reboot: f.Now(), retired: f.Retired(), res: o.Res, err: o.Err, sys: o.Sys}
		kept = true
	}
	x.stats.Instants++
	x.stats.BootCycles += o.Res.Counters.Cycles
	return o, kept
}

// tail runs m, paused right after a reboot, to completion.
func (x *explorer) tail(m *emu.Machine) (emu.Result, error) {
	from := m.Now()
	res, err := m.Run()
	x.stats.Tails++
	x.stats.ForkCycles += res.Counters.Cycles - from
	return res, err
}

// shift returns the class's result moved to member f: cycles and
// instructions offset by the difference at reboot, and every other counter
// zero. ok is false when the class's tail or the shifted one would reach the
// cycle budget or the instruction limit, which fire at absolute counts.
func (c *class) shift(f *emu.Machine) (res emu.Result, ok bool) {
	cycles := c.res.Counters.Cycles - c.reboot + f.Now()
	instrs := c.res.Counters.Instructions - c.retired + f.Retired()
	maxCycles, maxInstrs := f.Limits()
	if maxCycles > 0 && max(cycles, c.res.Counters.Cycles) >= maxCycles ||
		max(instrs, c.res.Counters.Instructions) >= maxInstrs {
		return res, false
	}
	res = c.res
	res.Counters = metrics.Counters{Cycles: cycles, Instructions: instrs}
	return res, true
}
