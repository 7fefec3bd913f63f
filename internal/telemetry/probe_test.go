package telemetry

import (
	"strings"
	"testing"

	"nacho/internal/sim"
)

// feedOneOfEach drives every probe hook once with distinguishable payloads.
func feedOneOfEach(p sim.Probe) {
	p.OnAccess(sim.AccessEvent{Cycle: 10, Addr: 0x100, Size: 4, Store: false, Class: sim.AccessHit})
	p.OnAccess(sim.AccessEvent{Cycle: 20, Addr: 0x104, Size: 4, Store: true, Class: sim.AccessMiss})
	p.OnAccess(sim.AccessEvent{Cycle: 30, Addr: 0x108, Size: 1, Store: false, Class: sim.AccessNVM})
	p.OnAccess(sim.AccessEvent{Cycle: 40, Addr: 0xfff0, Size: 4, Store: true, Class: sim.AccessMMIO})
	p.OnLineFill(sim.FillEvent{Addr: 0x100})
	p.OnWriteBack(sim.WriteBackEvent{Cycle: 50, Addr: 0x200, Size: 16, Verdict: sim.VerdictSafe})
	p.OnWriteBack(sim.WriteBackEvent{Cycle: 55, Addr: 0x210, Size: 16, Verdict: sim.VerdictUnsafe})
	p.OnCheckpointBegin(sim.CheckpointEvent{Cycle: 60, Lines: 3})
	p.OnCheckpointCommit(sim.CheckpointEvent{
		Cycle: 80, Kind: sim.CheckpointCommit, Lines: 3, Forced: true,
		Interval: 80, IntervalValid: true,
	})
	p.OnCheckpointCommit(sim.CheckpointEvent{Cycle: 90, Kind: sim.CheckpointRegion})
	p.OnPowerFailure(sim.PowerEvent{Cycle: 100})
	p.OnRestore(sim.RestoreEvent{Cycle: 160, Cycles: 60, OK: true})
	p.OnRestore(sim.RestoreEvent{Cycle: 170, Cycles: 5, OK: false})
	p.OnNVM(sim.NVMEvent{Cycle: 30, Addr: 0x108, Bytes: 4, Write: false})
	p.OnNVM(sim.NVMEvent{Cycle: 80, Addr: 0x200, Bytes: 48, Write: true})
}

func TestProbeFeedsRegistry(t *testing.T) {
	r := NewRegistry()
	p := NewProbe(r)
	feedOneOfEach(p)
	p.Retired(1)

	want := map[string]uint64{
		"nacho_sim_loads_total":                        2,
		"nacho_sim_stores_total":                       2,
		`nacho_sim_accesses_total{class="hit"}`:        1,
		`nacho_sim_accesses_total{class="miss"}`:       1,
		`nacho_sim_accesses_total{class="nvm"}`:        1,
		`nacho_sim_accesses_total{class="mmio"}`:       1,
		"nacho_sim_line_fills_total":                   1,
		`nacho_sim_writebacks_total{verdict="safe"}`:   1,
		`nacho_sim_writebacks_total{verdict="unsafe"}`: 1,
		`nacho_sim_writebacks_total{verdict="async"}`:  0,
		"nacho_sim_checkpoint_begins_total":            1,
		`nacho_sim_checkpoints_total{kind="commit"}`:   1,
		`nacho_sim_checkpoints_total{kind="region"}`:   1,
		`nacho_sim_checkpoints_total{kind="jit"}`:      0,
		"nacho_sim_checkpoints_forced_total":           1,
		"nacho_sim_checkpoints_adaptive_total":         0,
		"nacho_sim_power_failures_total":               1,
		"nacho_sim_restores_total":                     1,
		"nacho_sim_restores_cold_total":                1,
		"nacho_sim_restore_cycles_total":               65,
		"nacho_sim_instructions_total":                 1,
		"nacho_sim_nvm_reads_total":                    1,
		"nacho_sim_nvm_writes_total":                   1,
		"nacho_sim_nvm_read_bytes_total":               4,
		"nacho_sim_nvm_write_bytes_total":              48,
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := checkPrometheusText(t, sb.String())
	for k, v := range want {
		if samples[k] != float64(v) {
			t.Errorf("%s = %g, want %d", k, samples[k], v)
		}
	}
	if p.ckptLines.Count() != 1 || p.ckptLines.Sum() != 3 {
		t.Errorf("checkpoint lines histogram count=%d sum=%d, want 1/3",
			p.ckptLines.Count(), p.ckptLines.Sum())
	}
	// The region commit must not pollute the commit-interval histogram.
	if p.ckptIntervals.Count() != 1 || p.ckptIntervals.Sum() != 80 {
		t.Errorf("interval histogram count=%d sum=%d, want 1/80",
			p.ckptIntervals.Count(), p.ckptIntervals.Sum())
	}
}
