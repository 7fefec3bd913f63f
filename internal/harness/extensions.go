package harness

import (
	"fmt"

	"nacho/internal/energy"
	"nacho/internal/mem"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// The experiments in this file go beyond the paper's evaluation: they
// realize the future-work directions of Section 8 (adaptive checkpointing,
// energy prediction, a rough energy model, and the write-through cache the
// paper scopes out) and measure them with the same harness.

// extThresholds is the adaptive-policy sweep (0 = policy off).
var extThresholds = []int{0, 8, 16, 32, 64}

// extAdaptive sweeps the Section 8 adaptive checkpointing policy: NACHO
// checkpoints proactively once more than N lines are dirty, trading extra
// checkpoints for a bound on any single checkpoint's size (capacitor
// sizing).
func extAdaptive(tl *tally, benchmarks []string) (*Report, error) {
	rep := &Report{
		Title:  "Extension (Section 8): adaptive checkpointing — dirty-line threshold sweep (NACHO, 512 B, 2-way)",
		Note:   "threshold 0 = policy off; max-ckpt bounds the energy any one checkpoint needs",
		Header: []string{"benchmark", "threshold", "cycles", "checkpoints", "max-ckpt(lines)", "nvm-writes(B)"},
	}
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		for _, th := range extThresholds {
			cfg := DefaultRunConfig()
			cfg.DirtyThreshold = th
			res, err := tl.get(p, systems.KindNACHO, cfg)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				name, fmt.Sprintf("%d", th),
				fmt.Sprintf("%d", res.Counters.Cycles),
				fmt.Sprintf("%d", res.Counters.Checkpoints),
				fmt.Sprintf("%d", res.Counters.MaxCheckpointLines),
				fmt.Sprintf("%d", res.Counters.NVMWriteBytes),
			})
		}
	}
	return rep, nil
}

// extEnergy applies the Section 8 rough energy model to every system,
// including NACHO under energy prediction (single-buffered checkpoints,
// halving checkpoint NVM writes).
func extEnergy(tl *tally, benchmarks []string) (*Report, error) {
	model := energy.DefaultModel()
	rep := &Report{
		Title: "Extension (Section 8): rough energy model (uJ per run; normalized to volatile)",
		Note: fmt.Sprintf("coefficients: %g pJ/instr, %g pJ/cache access, %g/%g pJ per NVM byte read/written",
			model.InstructionPJ, model.CacheAccessPJ, model.NVMReadPJByte, model.NVMWritePJByte),
		Header: []string{"benchmark", "volatile(uJ)", "clank", "prowl", "replaycache", "nacho", "nacho+ep"},
	}
	kinds := []systems.Kind{systems.KindClank, systems.KindPROWL, systems.KindReplayCache, systems.KindNACHO}
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		base, err := tl.get(p, systems.KindVolatile, DefaultRunConfig())
		if err != nil {
			return nil, err
		}
		baseUJ := model.Estimate(base.Counters).TotalUJ()
		row := []string{name, fmt.Sprintf("%.1f", baseUJ)}
		for _, kind := range kinds {
			res, err := tl.get(p, kind, DefaultRunConfig())
			if err != nil {
				return nil, err
			}
			row = append(row, fmtRatio(model.Estimate(res.Counters).TotalUJ()/baseUJ))
		}
		cfg := DefaultRunConfig()
		cfg.EnergyPrediction = true
		res, err := tl.get(p, systems.KindNACHO, cfg)
		if err != nil {
			return nil, err
		}
		row = append(row, fmtRatio(model.Estimate(res.Counters).TotalUJ()/baseUJ))
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// extWriteThrough compares NACHO's write-back design against the
// write-through cache model of Section 8's limitations discussion.
func extWriteThrough(tl *tally, benchmarks []string) (*Report, error) {
	rep := &Report{
		Title:  "Extension (Section 8): write-back NACHO vs a write-through cache with exact WAR tracking (512 B, 2-way)",
		Header: []string{"benchmark", "system", "cycles", "checkpoints", "nvm-writes(B)", "hit-rate"},
	}
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		for _, kind := range []systems.Kind{systems.KindNACHO, systems.KindWriteThrough} {
			res, err := tl.get(p, kind, DefaultRunConfig())
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				name, string(kind),
				fmt.Sprintf("%d", res.Counters.Cycles),
				fmt.Sprintf("%d", res.Counters.Checkpoints),
				fmt.Sprintf("%d", res.Counters.NVMWriteBytes),
				fmt.Sprintf("%.1f%%", 100*res.Counters.HitRate()),
			})
		}
	}
	return rep, nil
}

// extTable2Long re-runs the Table 2 re-execution-overhead experiment on the
// scaled-up (-long) benchmark variants, whose 100-400 ms runtimes give the
// paper's 50 ms and 100 ms on-durations a meaningful number of failures (the
// standard benchmarks finish in 10-40 ms — see EXPERIMENTS.md). Its
// benchmark set is fixed.
func extTable2Long(tl *tally, _ []string) (*Report, error) {
	benchmarks := []string{"coremark-long", "picojpeg-long", "aes-long", "sha-long", "adpcm-long"}
	rep := &Report{
		Title:  "Extension: Table 2 on the scaled -long benchmarks (NACHO, 512 B, 2-way)",
		Note:   "periodic power failures; forced checkpoint every on-duration/2",
		Header: append([]string{"on-duration"}, benchmarks...),
	}
	base := map[string]float64{}
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		res, err := tl.get(p, systems.KindNACHO, DefaultRunConfig())
		if err != nil {
			return nil, err
		}
		base[name] = float64(res.Counters.Cycles)
	}
	for _, ms := range Table2OnDurationsMs {
		row := []string{fmt.Sprintf("%g ms", ms)}
		for _, name := range benchmarks {
			p, _ := program.ByName(name)
			cfg := DefaultRunConfig()
			period := mem.CyclesForMillis(ms)
			cfg.Schedule = power.Periodic{Period: period}
			cfg.ForcedCheckpointPeriod = period / 2
			res, err := tl.get(p, systems.KindNACHO, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtPct(float64(res.Counters.Cycles)/base[name]-1))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// extFalsePositives quantifies Section 3.2's claim that hashing-induced
// false positives in NACHO's WAR detection are "mostly negligible": it
// compares NACHO's unsafe-eviction count against Oracle NACHO's (a perfect
// exact-address detector — every extra unsafe eviction is a false positive)
// and reports the execution-time cost of the difference.
func extFalsePositives(tl *tally, benchmarks []string) (*Report, error) {
	rep := &Report{
		Title:  "Extension: WAR-detection false positives — NACHO vs Oracle NACHO (2-way)",
		Note:   "false positives = NACHO's unsafe evictions beyond the perfect detector's",
		Header: []string{"benchmark", "cache", "oracle-unsafe", "nacho-unsafe", "false-pos", "time-cost"},
	}
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		for _, size := range []int{256, 512} {
			cfg := DefaultRunConfig()
			cfg.CacheSize = size
			oracle, err := tl.get(p, systems.KindOracleNACHO, cfg)
			if err != nil {
				return nil, err
			}
			nacho, err := tl.get(p, systems.KindNACHO, cfg)
			if err != nil {
				return nil, err
			}
			fp := int64(nacho.Counters.UnsafeEvictions) - int64(oracle.Counters.UnsafeEvictions)
			rep.Rows = append(rep.Rows, []string{
				name, fmt.Sprintf("%dB", size),
				fmt.Sprintf("%d", oracle.Counters.UnsafeEvictions),
				fmt.Sprintf("%d", nacho.Counters.UnsafeEvictions),
				fmt.Sprintf("%d", fp),
				fmtPct(float64(nacho.Counters.Cycles)/float64(oracle.Counters.Cycles) - 1),
			})
		}
	}
	return rep, nil
}

// extSeedVariance measures run-to-run variability of the re-execution
// overhead under *random* (seeded-uniform) power schedules — the statistics
// the paper's single periodic run cannot show. For each benchmark it runs
// nSeeds schedules with mean on-duration 5 ms and reports min/mean/max
// overhead versus the failure-free run.
func extSeedVariance(tl *tally, benchmarks []string) (*Report, error) {
	const nSeeds = 8
	rep := &Report{
		Title:  "Extension: overhead variability over random power schedules (NACHO, 512 B, mean 5 ms on-duration)",
		Note:   fmt.Sprintf("%d seeded-uniform schedules per benchmark; forced checkpoint every 2.5 ms", nSeeds),
		Header: []string{"benchmark", "min", "mean", "max"},
	}
	period := mem.CyclesForMillis(5)
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		base, err := tl.get(p, systems.KindNACHO, DefaultRunConfig())
		if err != nil {
			return nil, err
		}
		min, max, sum := 1e18, -1e18, 0.0
		for seed := int64(1); seed <= nSeeds; seed++ {
			cfg := DefaultRunConfig()
			cfg.Schedule = power.NewUniform(period/2, period*3/2, seed)
			cfg.ForcedCheckpointPeriod = period / 2
			res, err := tl.get(p, systems.KindNACHO, cfg)
			if err != nil {
				return nil, err
			}
			over := float64(res.Counters.Cycles)/float64(base.Counters.Cycles) - 1
			if over < min {
				min = over
			}
			if over > max {
				max = over
			}
			sum += over
		}
		rep.Rows = append(rep.Rows, []string{name, fmtPct(min), fmtPct(sum / nSeeds), fmtPct(max)})
	}
	return rep, nil
}
