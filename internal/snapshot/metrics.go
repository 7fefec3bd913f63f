package snapshot

import (
	"sync/atomic"

	"nacho/internal/telemetry"
)

// Live exploration accounting: Explore folds every finished exploration's
// Stats into these process-wide atomics, which RegisterMetrics exposes as
// nacho_snapshot_* series — so a long `nachofuzz -exhaustive` fleet's
// progress (and the measured fork-vs-boot advantage) is scrapeable instead of
// stderr-only. Always on; the cost is a handful of atomic adds per
// exploration, nothing per fork.
var global struct {
	explorations atomic.Uint64
	windows      atomic.Uint64
	instants     atomic.Uint64
	tails        atomic.Uint64
	reused       atomic.Uint64
	reruns       atomic.Uint64
	scoutCycles  atomic.Uint64
	prefixCycles atomic.Uint64
	forkCycles   atomic.Uint64
	bootCycles   atomic.Uint64
}

// WindowInstantBuckets are the inclusive upper bounds of the per-window
// crash-instant fan-out histogram: a 1-3-10 ladder covering everything from a
// near-empty tail window to a 10k-instant monster.
var WindowInstantBuckets = []uint64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000}

// windowInstants observes the fan-out (instants executed) of each enumerated
// window.
var windowInstants = telemetry.NewHistogram(WindowInstantBuckets)

// recordExploration folds one exploration's final Stats into the globals.
func recordExploration(s Stats) {
	global.explorations.Add(1)
	global.windows.Add(uint64(s.Windows))
	global.instants.Add(uint64(s.Instants))
	global.tails.Add(uint64(s.Tails))
	global.reused.Add(uint64(s.Reused))
	global.reruns.Add(uint64(s.Reruns))
	global.scoutCycles.Add(s.ScoutCycles)
	global.prefixCycles.Add(s.PrefixCycles)
	global.forkCycles.Add(s.ForkCycles)
	global.bootCycles.Add(s.BootCycles)
}

// RegisterMetrics exposes the exploration accounting in r as nacho_snapshot_*
// series. The Func variants read the live atomics at scrape time.
func RegisterMetrics(r *telemetry.Registry) {
	r.NewCounterFunc("nacho_snapshot_explorations_total",
		"Exhaustive explorations completed (with or without error).", global.explorations.Load)
	r.NewCounterFunc("nacho_snapshot_windows_total",
		"Checkpoint windows enumerated.", global.windows.Load)
	r.NewCounterFunc("nacho_snapshot_instants_total",
		"Crash instants explored: each forked, failed and rebooted.", global.instants.Load)
	r.NewCounterFunc("nacho_snapshot_tails_total",
		"Post-failure tails run: one per distinct post-reboot state, plus budget re-runs.", global.tails.Load)
	r.NewCounterFunc("nacho_snapshot_reused_instants_total",
		"Crash instants that reused the outcome of an equal post-reboot state.", global.reused.Load)
	r.NewCounterFunc("nacho_snapshot_budget_reruns_total",
		"Crash instants run in full because a shifted outcome would reach a budget.", global.reruns.Load)
	r.NewCounterFunc("nacho_snapshot_scout_cycles_total",
		"Simulated cycles spent in boundary-scouting passes.", global.scoutCycles.Load)
	r.NewCounterFunc("nacho_snapshot_prefix_cycles_total",
		"Simulated cycles spent advancing shared prefix machines.", global.prefixCycles.Load)
	r.NewCounterFunc("nacho_snapshot_fork_cycles_total",
		"Simulated cycles forks ran: up to each reboot, and each tail.", global.forkCycles.Load)
	r.NewCounterFunc("nacho_snapshot_boot_cycles_total",
		"Simulated cycles the same instants would have cost from boot.", global.bootCycles.Load)
	r.NewGaugeFunc("nacho_snapshot_speedup",
		"Measured fork-vs-boot advantage: boot cycles / actually simulated cycles.",
		func() float64 {
			paid := global.scoutCycles.Load() + global.prefixCycles.Load() + global.forkCycles.Load()
			if paid == 0 {
				return 0
			}
			return float64(global.bootCycles.Load()) / float64(paid)
		})
	r.RegisterHistogram("nacho_snapshot_window_instants",
		"Crash instants executed per enumerated window.", windowInstants)
}
