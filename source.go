package nacho

import (
	"fmt"

	"nacho/internal/emu"
	"nacho/internal/harness"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// MMIO addresses available to user programs (see RunSource).
const (
	// MMIOExit halts the program; the stored value is the exit status.
	MMIOExit = 0x000F_0000
	// MMIOResult reports a result word (returned in Result.ResultWord).
	MMIOResult = 0x000F_0004
	// MMIOPutchar appends the stored low byte to Result.Output.
	MMIOPutchar = 0x000F_0008
)

// RunSource assembles and runs a caller-supplied RV32IM assembly program
// under the configured system (Config.Benchmark is ignored). The program
// uses the standard layout — .text at 0x10000, .data at 0x20000, stack
// pointer initialized to 0xA0000 growing down — must define `_start`, and
// halts by storing to MMIOExit (or executing ebreak). Shadow-memory and WAR
// verification still apply unless disabled; there is no reference checksum.
//
// Minimal example:
//
//	_start:
//	    li   t0, 41
//	    addi t0, t0, 1
//	    li   t1, 0x000F0004   # MMIOResult
//	    sw   t0, (t1)
//	    li   t1, 0x000F0000   # MMIOExit
//	    sw   zero, (t1)
func RunSource(name, source string, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	img, err := program.FromSource(name, source)
	if err != nil {
		return nil, err
	}
	rc, err := cfg.runConfig()
	if err != nil {
		return nil, err
	}
	stats, tep := cfg.observers(&rc)
	res, err := harness.RunImage(img, systems.Kind(cfg.System), rc, false)
	if err := cfg.finishObservers(tep, res, err); err != nil {
		return nil, err
	}
	return newResult(res, stats), nil
}

// experimentReport resolves an experiment name to its regenerated report via
// the harness experiment registry.
func experimentReport(name string, benchmarks []string) (*harness.Report, error) {
	rep, err := harness.RunNamedExperiment(name, benchmarks)
	if err != nil {
		return nil, fmt.Errorf("nacho: %w", err)
	}
	return rep, nil
}

// ExperimentOutput is one regenerated table or figure in both render forms,
// plus the harness timing summary of the regeneration.
type ExperimentOutput struct {
	// Text is the aligned text table, CSV the comma-separated form the
	// original artifact's scripts log (Appendix A.6). Both are byte-identical
	// across repeats and parallelism settings.
	Text string
	CSV  string
	// Timing summarizes the regeneration: simulations run, cache hits,
	// summed per-run wall time across all workers, and total harness wall
	// time (their ratio is the parallel speedup). It varies run to run and is
	// never part of Text or CSV.
	Timing string
}

// RunExperiment regenerates one of the paper's tables or figures, fanning
// the run matrix across Parallelism() workers. Valid names are listed by
// ExperimentNames. benchmarks narrows the benchmark set; nil means the
// experiment's paper-default set. Experiments in one process share one run
// cache, so a run an earlier experiment executed is served, not executed
// again.
func RunExperiment(name string, benchmarks []string) (*ExperimentOutput, error) {
	rep, err := experimentReport(name, benchmarks)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Text: rep.String(), CSV: rep.CSV(), Timing: rep.Timing}, nil
}

// SetParallelism sets the number of worker goroutines experiment
// regeneration uses and returns the previous setting. n <= 0 resets to
// runtime.NumCPU(); 1 runs fully sequentially. Every report is
// byte-identical regardless of the setting; only wall time changes.
func SetParallelism(n int) int { return harness.SetWorkers(n) }

// Parallelism reports the current experiment worker count.
func Parallelism() int { return harness.Workers() }

// SetDefaultEngine selects the execution engine experiment regeneration
// runs on ("auto", "ref", or "aot"; see Config.Engine) and returns the
// previous setting. Every report is byte-identical regardless of the
// engine — the equivalence suite enforces it — so this is purely a
// performance and debugging knob. Unknown names return a descriptive error
// and leave the setting unchanged.
func SetDefaultEngine(name string) (string, error) {
	e, err := emu.ParseEngine(name)
	if err != nil {
		return "", fmt.Errorf("nacho: %w", err)
	}
	return string(harness.SetDefaultEngine(e)), nil
}

// Experiment regenerates one of the paper's tables or figures as a text
// report. Valid names are listed by ExperimentNames. benchmarks narrows the
// benchmark set; nil means the experiment's paper-default set.
func Experiment(name string, benchmarks []string) (string, error) {
	rep, err := experimentReport(name, benchmarks)
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// ExperimentCSV is Experiment in the comma-separated form the original
// artifact's scripts log (Appendix A.6).
func ExperimentCSV(name string, benchmarks []string) (string, error) {
	rep, err := experimentReport(name, benchmarks)
	if err != nil {
		return "", err
	}
	return rep.CSV(), nil
}

// ExperimentNames lists the regenerable tables and figures in paper order,
// followed by this reproduction's Section 8 extension experiments
// (adaptive checkpointing, the rough energy model, the write-through
// comparison).
func ExperimentNames() []string { return harness.ExperimentNames() }
