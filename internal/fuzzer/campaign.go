package fuzzer

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"nacho/internal/harness"
	"nacho/internal/systems"
	"nacho/internal/telemetry"
)

// CampaignConfig parameterizes one fuzzing campaign.
type CampaignConfig struct {
	// Seeds is the number of programs to generate, with seeds
	// SeedBase .. SeedBase+Seeds-1. With no Deadline the campaign is a pure
	// function of this configuration: same seeds, same findings report.
	Seeds    int
	SeedBase int64
	// Kinds are the systems under test (default: DefaultKinds).
	Kinds  []systems.Kind
	Oracle Config
	// Minimize delta-debugs every finding before reporting.
	Minimize bool
	// Exhaustive switches the per-seed oracle from randomized failure
	// schedules to exhaustive crash-instant enumeration over the first
	// Intervals checkpoint intervals, powered by snapshot forking
	// (CheckExhaustive).
	Exhaustive bool
	// Intervals bounds exhaustive enumeration (default 2; ignored unless
	// Exhaustive is set).
	Intervals int
	// Stride enumerates every Stride-th crash instant in exhaustive mode
	// (default 1: every instruction-granular instant).
	Stride uint64
	// OutDir, when non-empty, receives one replayable JSON artifact per
	// finding.
	OutDir string
	// Deadline, when non-zero, stops the campaign early: seeds not started
	// by then are skipped (the report counts how many actually ran, and is
	// no longer deterministic — use a pure seed count for that).
	Deadline time.Time
	// Progress, when non-nil, receives wall-clock timing (kept out of the
	// report itself so reports stay byte-comparable across runs).
	Progress io.Writer
}

// CampaignReport summarizes a campaign deterministically: findings are
// sorted by (seed, system) and contain no timing or host state.
type CampaignReport struct {
	Seeds    int
	SeedBase int64
	Programs int // programs actually checked (== Seeds unless a deadline cut it short)
	Kinds    []systems.Kind
	Findings []Finding
	Errors   []string // infrastructure errors (render/golden failures), sorted
	Artifact []string // artifact paths written, sorted
}

// String renders the deterministic findings report.
func (r *CampaignReport) String() string {
	var b strings.Builder
	kinds := make([]string, len(r.Kinds))
	for i, k := range r.Kinds {
		kinds[i] = string(k)
	}
	fmt.Fprintf(&b, "nachofuzz: %d seeds (base %d) x systems [%s]: %d programs checked, %d findings\n",
		r.Seeds, r.SeedBase, strings.Join(kinds, " "), r.Programs, len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "FINDING %s\n", f)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "ERROR %s\n", e)
	}
	for _, p := range r.Artifact {
		fmt.Fprintf(&b, "artifact %s\n", p)
	}
	return b.String()
}

// RunCampaign fans the seed range out across the harness worker pool and
// funnels every divergence through (optional) minimization and artifact
// writing. Every step is deterministic given the configuration; only the
// order of execution varies with the pool, and the report is sorted.
func RunCampaign(cfg CampaignConfig) *CampaignReport {
	start := time.Now()
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = DefaultKinds()
	}
	cfg.Oracle = cfg.Oracle.normalized()
	rep := &CampaignReport{Seeds: cfg.Seeds, SeedBase: cfg.SeedBase, Kinds: cfg.Kinds}

	nw := harness.Workers()
	if nw > cfg.Seeds {
		nw = cfg.Seeds
	}
	if nw < 1 {
		nw = 1
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		seedCh   = make(chan int64)
		findings []Finding
		errs     []string
		programs int
		exStats  ExhaustiveStats
	)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seedCh {
				if !cfg.Deadline.IsZero() && time.Now().After(cfg.Deadline) {
					continue
				}
				programsTotal.Add(1)
				prog := Generate(seed)
				// One seed is one cell span on the campaign tracer; the
				// seed's oracle runs (and exhaustive windows) parent to it.
				tr := telemetry.ActiveTracer()
				var cell telemetry.SpanID
				if tr != nil {
					cell = tr.Begin(0, telemetry.SpanCell, fmt.Sprintf("seed %d", seed), "", "")
				}
				oracle := cfg.Oracle
				oracle.Span = cell
				var (
					fs  []Finding
					st  ExhaustiveStats
					err error
				)
				if cfg.Exhaustive {
					fs, st, err = CheckExhaustive(prog, cfg.Kinds, ExhaustiveConfig{
						Oracle: oracle, Intervals: cfg.Intervals, Stride: cfg.Stride,
					})
				} else {
					fs, err = Check(prog, cfg.Kinds, oracle)
				}
				tr.End(cell, uint64(len(fs)), uint64(seed), err != nil)
				mu.Lock()
				programs++
				findings = append(findings, fs...)
				exStats.add(st)
				if err != nil {
					errs = append(errs, err.Error())
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < cfg.Seeds; i++ {
		seedCh <- cfg.SeedBase + int64(i)
	}
	close(seedCh)
	wg.Wait()

	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Seed != findings[j].Seed {
			return findings[i].Seed < findings[j].Seed
		}
		return findings[i].System < findings[j].System
	})
	sort.Strings(errs)
	rep.Programs = programs
	rep.Errors = errs

	if cfg.Minimize {
		for i := range findings {
			findings[i] = Minimize(findings[i], cfg.Oracle)
		}
	}
	if cfg.OutDir != "" {
		for _, f := range findings {
			a, err := NewArtifact(f, cfg.Oracle)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("artifact for seed %d on %s: %v", f.Seed, f.System, err))
				continue
			}
			path, err := a.Write(cfg.OutDir)
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("artifact for seed %d on %s: %v", f.Seed, f.System, err))
				continue
			}
			rep.Artifact = append(rep.Artifact, path)
		}
		sort.Strings(rep.Artifact)
	}
	rep.Findings = findings

	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, "timing: %d programs, %d oracle runs, %v wall time across %d workers\n",
			programs, oracleRuns.Load(), time.Since(start).Round(time.Millisecond), nw)
		if cfg.Exhaustive {
			fmt.Fprintf(cfg.Progress, "exhaustive: %d crash instants across %d windows, %.1fx speedup vs re-run-from-boot\n",
				exStats.Instants, exStats.Windows, exStats.Speedup())
		}
	}
	return rep
}
