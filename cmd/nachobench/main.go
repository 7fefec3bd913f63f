// Command nachobench regenerates the paper's evaluation tables and figures
// (Section 6.2) as text reports: Figure 5 (execution time), Figure 6
// (checkpoints), Figure 7 (NVM transfers), Table 2 (re-execution overhead),
// Table 3 (component ablation), Figure 8 (cache design space) and the
// Table 1 feature matrix.
//
// Each experiment's run matrix is fanned out across -j worker goroutines
// (default: all CPUs). Reports are byte-identical for every -j value; the
// per-experiment timing summary goes to stderr so stdout stays exactly
// reproducible.
//
// With -store, results persist in a content-addressed store across
// invocations: a re-run of an experiment whose matrix is already stored
// executes zero simulations and prints a byte-identical report.
//
// Usage:
//
//	nachobench                  # regenerate everything, parallel
//	nachobench -exp fig5 -j 1   # one experiment, sequential
//	nachobench -exp fig7 -bench aes,sha
//	nachobench -store runs/     # warm re-runs execute nothing
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nacho"
	"nacho/internal/profiling"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, or one of "+strings.Join(nacho.ExperimentNames(), ", "))
		bench   = flag.String("bench", "", "comma-separated benchmark subset (default: the experiment's paper set)")
		csv     = flag.Bool("csv", false, "emit CSV (the original artifact's log format) instead of tables")
		j       = flag.Int("j", 0, "parallel simulation workers (0 = all CPUs, 1 = sequential)")
		timings = flag.Bool("timings", true, "print per-experiment timing summaries to stderr")
		serve   = flag.String("serve", "", "serve live telemetry (/metrics, /status, /dashboard, /debug/pprof) on this address during the sweep")

		storeDir = flag.String("store", "", "persistent content-addressed run store directory (results survive restarts; warm re-runs execute nothing)")

		traceCampaign = flag.String("trace-campaign", "", "write a Perfetto trace of the whole campaign (experiment/run spans) to this file")
		ledger        = flag.String("ledger", "", "append one JSON record per run to this ledger file")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit (diagnoses worker-pool contention)")
		blockprofile = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	)
	flag.Parse()
	nacho.SetParallelism(*j)

	profiles := profiling.Profiles{
		CPU: *cpuprofile, Mem: *memprofile, Mutex: *mutexprofile, Block: *blockprofile,
	}
	if profiles.Enabled() {
		stop, err := profiling.Start(profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "nachobench:", err)
			}
		}()
	}

	if *storeDir != "" {
		rs, err := nacho.OpenRunStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
			os.Exit(1)
		}
		defer func() {
			if err := rs.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "nachobench:", err)
			}
			st := rs.Stats()
			fmt.Fprintf(os.Stderr, "nachobench: store %s: %d hits, %d misses, %d puts, %d corrupt evicted\n",
				rs.Dir(), st.Hits, st.Misses, st.Puts, st.CorruptEvicted)
		}()
	}

	if *serve != "" {
		ts, err := nacho.ServeTelemetry(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
			os.Exit(1)
		}
		defer ts.Close()
		fmt.Fprintf(os.Stderr, "nachobench: telemetry on http://%s\n", ts.Addr())
	}

	campaign, err := nacho.StartCampaign(nacho.CampaignConfig{
		Name: "nachobench", TracePath: *traceCampaign, LedgerPath: *ledger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nachobench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := campaign.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
		}
	}()

	var subset []string
	if *bench != "" {
		subset = strings.Split(*bench, ",")
	}

	names := nacho.ExperimentNames()
	if *exp != "all" {
		names = []string{*exp}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		out, err := nacho.RunExperiment(name, subset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nachobench:", err)
			campaign.Close() // flush the partial trace/ledger before exiting
			os.Exit(1)
		}
		if *csv {
			fmt.Print(out.CSV)
		} else {
			fmt.Print(out.Text)
		}
		if *timings && out.Timing != "" {
			fmt.Fprintf(os.Stderr, "%s %s\n", name, out.Timing)
		}
	}
}
