// Command nachofuzz runs the crash-consistency fuzzing campaign: seeded
// random RV32IM programs through the differential oracle across the memory
// systems, under randomized power-failure schedules.
//
// Usage:
//
//	nachofuzz -seeds 256                      # all six systems, default oracle
//	nachofuzz -seeds 64 -systems nacho,clank  # restrict the system matrix
//	nachofuzz -duration 30s -out findings/    # time-boxed, write artifacts
//	nachofuzz -seeds 16 -exhaustive           # every crash instant, first 2 intervals
//	nachofuzz -replay findings/war-violation-nacho-seed5.json
//
// -exhaustive replaces the randomized failure schedules with exhaustive
// crash-instant enumeration via copy-on-write snapshot forking: every
// instruction-granular power-failure instant in the first -intervals
// checkpoint intervals is checked, sharing the failure-free prefix and
// running one post-failure tail per distinct post-reboot state. The
// instant and tail counts and the measured speedup over re-running each
// instant from boot go to stderr.
//
// Without -duration the campaign is deterministic: the same flags produce
// the same findings report, byte for byte (timing goes to stderr). The
// exit status is 0 when no findings, 1 when the oracle found divergences,
// 2 on usage or infrastructure errors. -replay re-executes a finding
// artifact and exits 0 only if the finding still reproduces.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nacho"
	"nacho/internal/fuzzer"
	"nacho/internal/harness"
	"nacho/internal/systems"
)

func main() {
	var (
		seeds      = flag.Int("seeds", 256, "number of generated programs (seeds seed-base..seed-base+N-1)")
		seedBase   = flag.Int64("seed-base", 1, "first generator seed")
		sysList    = flag.String("systems", "all", "comma-separated systems to fuzz, or 'all'")
		schedules  = flag.Int("schedules", 3, "randomized failure schedules per (program, system)")
		cacheSize  = flag.Int("cache", 512, "data cache size in bytes")
		ways       = flag.Int("ways", 2, "cache associativity")
		duration   = flag.Duration("duration", 0, "stop after this wall time (0 = run all seeds; makes the report non-deterministic)")
		minimize   = flag.Bool("minimize", true, "delta-debug findings before reporting")
		outDir     = flag.String("out", "", "write replayable finding artifacts to this directory")
		replay     = flag.String("replay", "", "replay a finding artifact instead of fuzzing")
		workers    = flag.Int("j", 0, "worker goroutines (0 = all cores)")
		serve      = flag.String("serve", "", "serve live telemetry (nacho_fuzz_*, /metrics, /status) on this address")
		exhaustive = flag.Bool("exhaustive", false, "enumerate every crash instant via snapshot forking instead of random schedules")
		intervals  = flag.Int("intervals", 2, "checkpoint intervals to enumerate per (program, system) with -exhaustive")
		stride     = flag.Uint64("stride", 1, "enumerate every stride-th crash instant with -exhaustive")

		traceCampaign = flag.String("trace-campaign", "", "write a Perfetto trace of the whole campaign (seed/run/window spans) to this file")
		ledgerPath    = flag.String("ledger", "", "append one JSON record per oracle run to this ledger file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nachofuzz: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	if *workers != 0 {
		harness.SetWorkers(*workers)
	}
	if *serve != "" {
		ts, err := nacho.ServeTelemetry(*serve)
		if err != nil {
			fatal(err)
		}
		defer ts.Close()
		fmt.Fprintf(os.Stderr, "nachofuzz: telemetry on http://%s\n", ts.Addr())
	}

	if *replay != "" {
		os.Exit(runReplay(*replay))
	}

	campaign, err := nacho.StartCampaign(nacho.CampaignConfig{
		Name: "nachofuzz", TracePath: *traceCampaign, LedgerPath: *ledgerPath,
	})
	if err != nil {
		fatal(err)
	}
	exit := func(code int) {
		if err := campaign.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "nachofuzz:", err)
		}
		os.Exit(code)
	}

	if *seeds <= 0 {
		fmt.Fprintln(os.Stderr, "nachofuzz: -seeds must be positive")
		exit(2)
	}
	kinds, err := parseSystems(*sysList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nachofuzz:", err)
		exit(2)
	}

	cfg := fuzzer.CampaignConfig{
		Seeds:    *seeds,
		SeedBase: *seedBase,
		Kinds:    kinds,
		Oracle:   fuzzer.Config{CacheSize: *cacheSize, Ways: *ways, Schedules: *schedules},
		Minimize: *minimize,
		OutDir:   *outDir,
		Progress: os.Stderr,
	}
	if *exhaustive {
		cfg.Exhaustive = true
		cfg.Intervals = *intervals
		cfg.Stride = *stride
	}
	if *duration > 0 {
		cfg.Deadline = time.Now().Add(*duration)
	}
	rep := fuzzer.RunCampaign(cfg)
	fmt.Print(rep)
	if err := campaign.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "nachofuzz:", err)
	}
	if len(rep.Errors) > 0 {
		os.Exit(2)
	}
	if len(rep.Findings) > 0 {
		os.Exit(1)
	}
}

// runReplay re-executes one artifact; 0 = reproduced, 1 = did not
// reproduce (the captured bug no longer exists), 2 = unusable artifact.
func runReplay(path string) int {
	a, err := fuzzer.LoadArtifact(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nachofuzz:", err)
		return 2
	}
	f, err := a.Replay()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nachofuzz:", err)
		return 2
	}
	if f == nil {
		fmt.Printf("replay %s: finding did not reproduce (recorded: %s on %s: %s)\n",
			path, a.Kind, a.System, a.Detail)
		return 1
	}
	fmt.Printf("replay %s: reproduced\nFINDING %s\n", path, f)
	return 0
}

func parseSystems(list string) ([]systems.Kind, error) {
	if list == "" || list == "all" {
		return fuzzer.DefaultKinds(), nil
	}
	valid := make(map[systems.Kind]bool)
	for _, k := range systems.AllKinds() {
		valid[k] = true
	}
	valid[systems.KindNACHOBrokenPW] = true // test-only kind, accepted for self-checks
	var kinds []systems.Kind
	for _, s := range strings.Split(list, ",") {
		k := systems.Kind(strings.TrimSpace(s))
		if k == "" {
			continue
		}
		if !valid[k] {
			return nil, fmt.Errorf("unknown system %q", k)
		}
		if k == systems.KindVolatile {
			return nil, fmt.Errorf("volatile is the golden baseline, not a fuzz subject")
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no systems selected")
	}
	return kinds, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nachofuzz:", err)
	os.Exit(2)
}
