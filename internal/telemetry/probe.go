package telemetry

import "nacho/internal/sim"

// Probe adapts the sim event stream to a metrics Registry: every event family
// becomes a counter (or histogram) that a scraper can watch live. All metric
// objects are resolved once at construction, so each hook is a fixed number
// of atomic adds with no lookup, no lock and no allocation — cheap enough to
// attach to a full-length simulation, and safe to share across the parallel
// harness's workers (one Probe can observe many concurrent runs; the counters
// then aggregate across them).
type Probe struct {
	loads   *Counter
	stores  *Counter
	classes [4]*Counter // indexed by sim.AccessClass

	fills *Counter

	writeBacks [sim.NumVerdicts]*Counter // indexed by sim.Verdict

	ckptBegins    *Counter
	ckptCommits   [3]*Counter // indexed by sim.CheckpointKind
	ckptForced    *Counter
	ckptAdaptive  *Counter
	ckptLines     *Histogram
	ckptIntervals *Histogram

	powerFailures *Counter
	restores      *Counter
	restoresCold  *Counter
	restoreCycles *Counter

	instructions *Counter

	nvmReads      *Counter
	nvmWrites     *Counter
	nvmReadBytes  *Counter
	nvmWriteBytes *Counter
}

// CheckpointLineBuckets are the dirty-line-payload histogram bounds (lines
// per checkpoint; capacitor-sizing resolution).
var CheckpointLineBuckets = []uint64{1, 2, 4, 8, 16, 32, 64, 128}

// CheckpointIntervalBuckets mirror metrics.Counters.IntervalHist: cycles
// between consecutive commits, bucketed <1k / <10k / <100k / >=100k.
var CheckpointIntervalBuckets = []uint64{1_000, 10_000, 100_000}

// NewProbe registers the sim event metrics in r and returns the adapter.
// Registering twice in one registry panics (duplicate series); share the one
// Probe instead.
func NewProbe(r *Registry) *Probe {
	p := &Probe{
		loads:  r.NewCounter("nacho_sim_loads_total", "Data loads retired."),
		stores: r.NewCounter("nacho_sim_stores_total", "Data stores retired."),

		fills: r.NewCounter("nacho_sim_line_fills_total", "Cache line installations after misses."),

		ckptBegins: r.NewCounter("nacho_sim_checkpoint_begins_total",
			"Checkpoint stagings started (commits plus failure-aborted attempts)."),
		ckptForced: r.NewCounter("nacho_sim_checkpoints_forced_total",
			"Periodic forward-progress checkpoints."),
		ckptAdaptive: r.NewCounter("nacho_sim_checkpoints_adaptive_total",
			"Dirty-threshold policy checkpoints."),
		ckptLines: r.NewHistogram("nacho_sim_checkpoint_lines",
			"Dirty cache lines persisted per committed checkpoint.", CheckpointLineBuckets),
		ckptIntervals: r.NewHistogram("nacho_sim_checkpoint_interval_cycles",
			"Cycles between consecutive checkpoint commits.", CheckpointIntervalBuckets),

		powerFailures: r.NewCounter("nacho_sim_power_failures_total", "Injected power failures."),
		restores: r.NewCounter("nacho_sim_restores_total",
			"Post-reboot restores from a committed checkpoint."),
		restoresCold: r.NewCounter("nacho_sim_restores_cold_total",
			"Post-reboot restarts from program entry (no checkpoint ever committed)."),
		restoreCycles: r.NewCounter("nacho_sim_restore_cycles_total",
			"Cycles spent in post-reboot restore sequences."),

		instructions: r.NewCounter("nacho_sim_instructions_total",
			"Instructions retired, including re-executed ones."),

		nvmReads:      r.NewCounter("nacho_sim_nvm_reads_total", "Charged NVM read accesses."),
		nvmWrites:     r.NewCounter("nacho_sim_nvm_writes_total", "Charged NVM write accesses."),
		nvmReadBytes:  r.NewCounter("nacho_sim_nvm_read_bytes_total", "Bytes read from NVM."),
		nvmWriteBytes: r.NewCounter("nacho_sim_nvm_write_bytes_total", "Bytes written to NVM."),
	}
	for c := sim.AccessHit; c <= sim.AccessMMIO; c++ {
		p.classes[c] = r.NewCounter("nacho_sim_accesses_total",
			"CPU data accesses by serving class.", Label{"class", c.String()})
	}
	for v := sim.VerdictSafe; int(v) < sim.NumVerdicts; v++ {
		p.writeBacks[v] = r.NewCounter("nacho_sim_writebacks_total",
			"Dirty lines (or written-through stores) leaving the volatile domain, by safety verdict.",
			Label{"verdict", v.String()})
	}
	for k := sim.CheckpointCommit; k <= sim.CheckpointJIT; k++ {
		p.ckptCommits[k] = r.NewCounter("nacho_sim_checkpoints_total",
			"Committed persistence points by kind.", Label{"kind", k.String()})
	}
	return p
}

// OnAccess implements sim.Probe.
func (p *Probe) OnAccess(e sim.AccessEvent) {
	if e.Store {
		p.stores.Inc()
	} else {
		p.loads.Inc()
	}
	if int(e.Class) < len(p.classes) {
		p.classes[e.Class].Inc()
	}
}

// OnLineFill implements sim.Probe.
func (p *Probe) OnLineFill(sim.FillEvent) { p.fills.Inc() }

// OnWriteBack implements sim.Probe.
func (p *Probe) OnWriteBack(e sim.WriteBackEvent) {
	if int(e.Verdict) < len(p.writeBacks) {
		p.writeBacks[e.Verdict].Inc()
	}
}

// OnCheckpointBegin implements sim.Probe.
func (p *Probe) OnCheckpointBegin(sim.CheckpointEvent) { p.ckptBegins.Inc() }

// OnCheckpointCommit implements sim.Probe.
func (p *Probe) OnCheckpointCommit(e sim.CheckpointEvent) {
	if int(e.Kind) < len(p.ckptCommits) {
		p.ckptCommits[e.Kind].Inc()
	}
	if e.Kind != sim.CheckpointCommit {
		return
	}
	p.ckptLines.Observe(uint64(e.Lines))
	if e.Forced {
		p.ckptForced.Inc()
	}
	if e.Adaptive {
		p.ckptAdaptive.Inc()
	}
	if e.IntervalValid {
		p.ckptIntervals.Observe(e.Interval)
	}
}

// OnPowerFailure implements sim.Probe.
func (p *Probe) OnPowerFailure(sim.PowerEvent) { p.powerFailures.Inc() }

// OnRestore implements sim.Probe.
func (p *Probe) OnRestore(e sim.RestoreEvent) {
	if e.OK {
		p.restores.Inc()
	} else {
		p.restoresCold.Inc()
	}
	p.restoreCycles.Add(e.Cycles)
}

// Retired adds n retired instructions to nacho_sim_instructions_total.
// Retired instructions are not probe events, so the caller feeds the run's
// instruction counter here once the run returns.
func (p *Probe) Retired(n uint64) { p.instructions.Add(n) }

// OnNVM implements sim.Probe.
func (p *Probe) OnNVM(e sim.NVMEvent) {
	if e.Write {
		p.nvmWrites.Inc()
		p.nvmWriteBytes.Add(uint64(e.Bytes))
	} else {
		p.nvmReads.Inc()
		p.nvmReadBytes.Add(uint64(e.Bytes))
	}
}
