// Command nachosim runs one benchmark under one memory system and prints
// the paper's metrics — the reproduction's counterpart to the artifact's
// benchmark.sh (Appendix A.5).
//
// Usage:
//
//	nachosim -bench aes -system nacho -cache 512 -ways 2
//	nachosim -bench coremark -system clank -onduration 10
//	nachosim -list
//	nachosim -run program.s -system nacho
package main

import (
	"flag"
	"fmt"
	"os"

	"nacho"
	"nacho/internal/mem"
	"nacho/internal/profiling"
)

func main() {
	var (
		bench        = flag.String("bench", "aes", "benchmark name (see -list)")
		system       = flag.String("system", "nacho", "memory system (see -list)")
		cacheSize    = flag.Int("cache", 512, "data cache size in bytes")
		ways         = flag.Int("ways", 2, "cache associativity")
		onDuration   = flag.Float64("onduration", 0, "power-failure on-duration in ms (0 = always on)")
		random       = flag.Bool("random", false, "use seeded-random on-durations instead of periodic")
		seed         = flag.Int64("seed", 1, "seed for -random")
		noVerify     = flag.Bool("noverify", false, "disable shadow-memory and WAR verification")
		trace        = flag.String("trace", "", "write a per-instruction execution trace to this file")
		threshold    = flag.Int("dirty-threshold", 0, "adaptive checkpointing threshold (0 = off)")
		probeStats   = flag.Bool("probe-stats", false, "collect and print per-checkpoint-interval statistics")
		energyPred   = flag.Bool("energy-prediction", false, "single-buffered checkpoints under guaranteed energy")
		list         = flag.Bool("list", false, "list benchmarks and systems, then exit")
		runFile      = flag.String("run", "", "assemble and run a user RV32IM .s file instead of a benchmark")
		perfetto     = flag.String("perfetto", "", "write the run as Perfetto/Chrome trace-event JSON to this file")
		serve        = flag.String("serve", "", "serve live telemetry (/metrics, /status, /dashboard, /debug/pprof) on this address during the run")
		storeDir     = flag.String("store", "", "persistent content-addressed run store directory (a repeated run is served from it without executing; traced/probed runs bypass it)")
		traceCamp    = flag.String("trace-campaign", "", "write a campaign-level Perfetto trace (wall-clock run spans) to this file")
		ledger       = flag.String("ledger", "", "append one JSON record per run to this ledger file")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
		blockprofile = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	)
	flag.Parse()

	profiles := profiling.Profiles{
		CPU: *cpuprofile, Mem: *memprofile, Mutex: *mutexprofile, Block: *blockprofile,
	}
	if profiles.Enabled() {
		stop, err := profiling.Start(profiles)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "nachosim:", err)
			}
		}()
	}

	if *list {
		fmt.Println("benchmarks:")
		for _, b := range nacho.Benchmarks() {
			desc, _ := nacho.BenchmarkDescription(b)
			fmt.Printf("  %-10s %s\n", b, desc)
		}
		fmt.Println("systems:")
		for _, s := range nacho.Systems() {
			fmt.Printf("  %s\n", s)
		}
		return
	}

	cfg := nacho.Config{
		Benchmark:        *bench,
		System:           nacho.System(*system),
		CacheSize:        *cacheSize,
		Ways:             *ways,
		OnDurationMs:     *onDuration,
		RandomFailures:   *random,
		Seed:             *seed,
		DisableVerify:    *noVerify,
		DirtyThreshold:   *threshold,
		EnergyPrediction: *energyPred,
		ProbeStats:       *probeStats,
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.Trace = f
	}
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.Perfetto = f
	}
	if *storeDir != "" {
		rs, err := nacho.OpenRunStore(*storeDir)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := rs.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "nachosim:", err)
			}
			st := rs.Stats()
			fmt.Fprintf(os.Stderr, "nachosim: store %s: %d hits, %d misses, %d puts\n",
				rs.Dir(), st.Hits, st.Misses, st.Puts)
		}()
	}
	if *serve != "" {
		ts, err := nacho.ServeTelemetry(*serve)
		if err != nil {
			fatal(err)
		}
		defer ts.Close()
		fmt.Fprintf(os.Stderr, "nachosim: telemetry on http://%s\n", ts.Addr())
	}
	campaign, err := nacho.StartCampaign(nacho.CampaignConfig{
		Name: "nachosim", TracePath: *traceCamp, LedgerPath: *ledger,
	})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := campaign.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "nachosim:", err)
		}
	}()

	var res *nacho.Result
	if *runFile != "" {
		src, rerr := os.ReadFile(*runFile)
		if rerr != nil {
			fatal(rerr)
		}
		res, err = nacho.RunSource(*runFile, string(src), cfg)
	} else {
		res, err = nacho.Run(cfg)
	}
	if err != nil {
		campaign.Close() // flush the error record before exiting
		fatal(err)
	}

	fmt.Printf("benchmark        %s\n", *bench)
	fmt.Printf("system           %s\n", *system)
	fmt.Printf("result word      0x%08x\n", res.ResultWord)
	fmt.Printf("cycles           %d (%.3f ms at 50 MHz)\n", res.Cycles, float64(res.Cycles)/(mem.ClockHz/1e3))
	fmt.Printf("instructions     %d (%d loads, %d stores)\n", res.Instructions, res.Loads, res.Stores)
	fmt.Printf("checkpoints      %d (%d lines flushed", res.Checkpoints, res.CheckpointLines)
	if res.Checkpoints > 0 {
		fmt.Printf(", avg %.1f lines, max %d", float64(res.CheckpointLines)/float64(res.Checkpoints), res.MaxCheckpointLines)
	}
	fmt.Printf(")\n")
	if res.Instructions > 0 && res.Checkpoints > 0 {
		fmt.Printf("ckpt frequency   %.1f per Minstr\n", 1e6*float64(res.Checkpoints)/float64(res.Instructions))
	}
	fmt.Printf("nvm reads        %d accesses, %d bytes\n", res.NVMReads, res.NVMReadBytes)
	fmt.Printf("nvm writes       %d accesses, %d bytes\n", res.NVMWrites, res.NVMWriteBytes)
	fmt.Printf("cache            %d hits, %d misses (%.1f%% hit rate)\n",
		res.CacheHits, res.CacheMisses, 100*res.HitRate())
	fmt.Printf("evictions        %d safe, %d unsafe, %d dropped stack lines\n",
		res.SafeEvictions, res.UnsafeEvictions, res.DroppedStackLines)
	if res.Regions > 0 {
		fmt.Printf("regions          %d\n", res.Regions)
	}
	if res.PowerFailures > 0 {
		fmt.Printf("power failures   %d\n", res.PowerFailures)
	}
	if len(res.Output) > 0 {
		fmt.Printf("output           %q\n", res.Output)
	}
	if res.ProbeStats != nil {
		printProbeStats(res.ProbeStats)
	}
}

// maxIntervalRows bounds the per-interval table; longer runs keep the totals
// and note how many rows were elided.
const maxIntervalRows = 32

func printProbeStats(ps *nacho.ProbeStats) {
	fmt.Printf("\ncheckpoint intervals (%d", len(ps.Intervals))
	if ps.Dropped > 0 {
		fmt.Printf(" stored, %d more in totals only", ps.Dropped)
	}
	fmt.Printf("):\n")
	fmt.Printf("  %-5s %12s %12s %10s %10s %6s %6s %6s  %s\n",
		"#", "start", "cycles", "nvm-rd-B", "nvm-wr-B", "safe", "unsafe", "lines", "closed by")
	for i, iv := range ps.Intervals {
		if i == maxIntervalRows {
			fmt.Printf("  ... %d more intervals\n", len(ps.Intervals)-maxIntervalRows)
			break
		}
		closedBy := iv.Kind
		if iv.PowerFailure {
			closedBy = "power-failure"
		}
		fmt.Printf("  %-5d %12d %12d %10d %10d %6d %6d %6d  %s\n",
			i, iv.StartCycle, iv.EndCycle-iv.StartCycle,
			iv.NVMReadBytes, iv.NVMWriteBytes,
			iv.WriteBacks.Safe, iv.WriteBacks.Unsafe, iv.CheckpointLines, closedBy)
	}
	w := ps.TotalWriteBacks
	fmt.Printf("interval totals  %d B read, %d B written\n", ps.TotalNVMReadBytes, ps.TotalNVMWriteBytes)
	fmt.Printf("verdicts         %d safe, %d unsafe, %d dropped-stack, %d write-through, %d async\n",
		w.Safe, w.Unsafe, w.DroppedStack, w.WriteThrough, w.Async)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nachosim:", err)
	os.Exit(1)
}
