package harness

import (
	"fmt"
	"sort"
	"strings"

	"nacho/internal/emu"
	"nacho/internal/mem"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// Report is one regenerated table or figure, rendered as text rows that
// mirror the paper's series.
type Report struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
	// Timing is the harness timing summary of the regeneration (run count,
	// cache hits, summed per-run wall time, total harness wall time). It
	// varies run to run, so String and CSV deliberately exclude it: report
	// output stays byte-identical across repeats and worker counts.
	Timing string
}

// CSV renders the report in the comma-separated form the original
// artifact's benchmark scripts emit into benchmarks/logs (Appendix A.6).
func (r *Report) CSV() string {
	var b strings.Builder
	quote := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	quote(r.Header)
	for _, row := range r.Rows {
		quote(row)
	}
	return b.String()
}

// String renders the report as an aligned text table. Rows may be ragged:
// cells beyond the header get their own columns, short rows end early.
func (r *Report) String() string {
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	if r.Note != "" {
		fmt.Fprintf(&b, "%s\n", r.Note)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	return b.String()
}

func fmtRatio(v float64) string { return fmt.Sprintf("%.3f", v) }

func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// fig5Systems are the systems Figure 5 plots, in the paper's order.
var fig5Systems = []systems.Kind{
	systems.KindClank, systems.KindPROWL, systems.KindReplayCache,
	systems.KindNACHO, systems.KindOracleNACHO,
}

// fig5 regenerates Figure 5: execution time for every benchmark and system,
// 2-way caches of 256 B and 512 B, normalized to the fully volatile system.
func fig5(tl *tally, benchmarks []string) (*Report, error) {
	rep := &Report{
		Title:  "Figure 5: execution time normalized to a fully volatile system",
		Note:   "2-way set-associative caches; Clank is cacheless and size-independent",
		Header: []string{"benchmark", "cache", "clank", "prowl", "replaycache", "nacho", "oracle"},
	}
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		base, err := tl.get(p, systems.KindVolatile, DefaultRunConfig())
		if err != nil {
			return nil, err
		}
		for _, size := range []int{256, 512} {
			row := []string{name, fmt.Sprintf("%dB", size)}
			for _, kind := range fig5Systems {
				cfg := DefaultRunConfig()
				cfg.CacheSize = size
				res, err := tl.get(p, kind, cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtRatio(float64(res.Counters.Cycles)/float64(base.Counters.Cycles)))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// Fig6Benchmarks is the paper's Figure 6 benchmark set: adpcm and quicksort
// are dropped as near-duplicates of SHA and CRC, towers because Clank and
// Oracle NACHO create no checkpoints there (Section 6.2).
func Fig6Benchmarks() []string {
	return []string{"coremark", "crc", "sha", "dijkstra", "aes", "picojpeg"}
}

// fig6 regenerates Figure 6: number of checkpoints normalized to Clank for
// PROWL and NACHO at 256 B and 512 B (ReplayCache creates none without power
// failures and is excluded, as in the paper).
func fig6(tl *tally, benchmarks []string) (*Report, error) {
	rep := &Report{
		Title:  "Figure 6: checkpoints created, normalized to Clank",
		Note:   "ReplayCache excluded (no checkpoints without power failures)",
		Header: []string{"benchmark", "cache", "clank(abs)", "prowl", "nacho"},
	}
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		clank, err := tl.get(p, systems.KindClank, DefaultRunConfig())
		if err != nil {
			return nil, err
		}
		for _, size := range []int{256, 512} {
			row := []string{name, fmt.Sprintf("%dB", size), fmt.Sprintf("%d", clank.Counters.Checkpoints)}
			for _, kind := range []systems.Kind{systems.KindPROWL, systems.KindNACHO} {
				cfg := DefaultRunConfig()
				cfg.CacheSize = size
				res, err := tl.get(p, kind, cfg)
				if err != nil {
					return nil, err
				}
				if clank.Counters.Checkpoints == 0 {
					row = append(row, fmt.Sprintf("%d(abs)", res.Counters.Checkpoints))
				} else {
					row = append(row, fmtRatio(float64(res.Counters.Checkpoints)/float64(clank.Counters.Checkpoints)))
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// fig7 regenerates Figure 7: NVM byte transfers (reads+writes) normalized to
// Clank; PROWL, ReplayCache and NACHO use a 512 B data cache.
func fig7(tl *tally, benchmarks []string) (*Report, error) {
	rep := &Report{
		Title:  "Figure 7: NVM byte transfers normalized to Clank (512 B caches)",
		Header: []string{"benchmark", "clank(bytes)", "prowl", "replaycache", "nacho"},
	}
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		clank, err := tl.get(p, systems.KindClank, DefaultRunConfig())
		if err != nil {
			return nil, err
		}
		row := []string{name, fmt.Sprintf("%d", clank.Counters.NVMBytes())}
		for _, kind := range []systems.Kind{systems.KindPROWL, systems.KindReplayCache, systems.KindNACHO} {
			res, err := tl.get(p, kind, DefaultRunConfig())
			if err != nil {
				return nil, err
			}
			row = append(row, fmtRatio(float64(res.Counters.NVMBytes())/float64(clank.Counters.NVMBytes())))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Table2Benchmarks is the paper's Table 2 set.
func Table2Benchmarks() []string {
	return []string{"coremark", "picojpeg", "aes", "sha", "adpcm"}
}

// Table2OnDurationsMs are the paper's power-failure on-durations.
var Table2OnDurationsMs = []float64{5, 10, 50, 100}

// table2 regenerates Table 2: NACHO's re-execution overhead under periodic
// power failures, relative to failure-free NACHO, with a forward-progress
// checkpoint at half the on-duration.
func table2(tl *tally, benchmarks []string) (*Report, error) {
	rep := &Report{
		Title:  "Table 2: NACHO re-execution overhead vs failure-free NACHO (512 B, 2-way, 50 MHz)",
		Note:   "periodic power failures; forced checkpoint every on-duration/2",
		Header: append([]string{"on-duration"}, benchmarks...),
	}
	for _, ms := range Table2OnDurationsMs {
		row := []string{fmt.Sprintf("%g ms", ms)}
		for _, name := range benchmarks {
			p, ok := program.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown benchmark %q", name)
			}
			base, err := tl.get(p, systems.KindNACHO, DefaultRunConfig())
			if err != nil {
				return nil, err
			}
			cfg := DefaultRunConfig()
			period := mem.CyclesForMillis(ms)
			cfg.Schedule = power.Periodic{Period: period}
			cfg.ForcedCheckpointPeriod = period / 2
			res, err := tl.get(p, systems.KindNACHO, cfg)
			if err != nil {
				return nil, err
			}
			over := float64(res.Counters.Cycles)/float64(base.Counters.Cycles) - 1
			row = append(row, fmtPct(over))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Table3Benchmarks is the paper's Table 3 set plus the two recursive
// workloads (towers, quicksort) where stack tracking has the most dead
// frames to harvest in this reproduction (EXPERIMENTS.md discusses the
// difference from the paper's compiled binaries).
func Table3Benchmarks() []string {
	return []string{"coremark", "picojpeg", "aes", "crc", "dijkstra", "sha", "towers", "quicksort"}
}

// table3 regenerates Table 3: percent reduction, relative to Naive NACHO, of
// intermittent-computing overhead, checkpoints, NVM reads and NVM writes for
// the possible-WAR detector alone (PW), stack tracking alone (ST), and the
// complete system (N).
func table3(tl *tally, benchmarks []string) (*Report, error) {
	rep := &Report{
		Title:  "Table 3: reduction vs Naive NACHO (512 B, 2-way)",
		Note:   "PW = possible-WAR detection only, ST = stack tracking only, N = NACHO",
		Header: []string{"benchmark", "metric", "PW", "ST", "N"},
	}
	variants := []systems.Kind{systems.KindNACHOPW, systems.KindNACHOST, systems.KindNACHO}
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		volatileRes, err := tl.get(p, systems.KindVolatile, DefaultRunConfig())
		if err != nil {
			return nil, err
		}
		naive, err := tl.get(p, systems.KindNaiveNACHO, DefaultRunConfig())
		if err != nil {
			return nil, err
		}
		var results []emu.Result
		for _, kind := range variants {
			res, err := tl.get(p, kind, DefaultRunConfig())
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
		metricRows := []struct {
			metric string
			value  func(emu.Result) float64
		}{
			// Overhead is the extra cycles over the volatile system — the
			// paper's "intermittent computing overhead".
			{"overhead", func(r emu.Result) float64 {
				return float64(r.Counters.Cycles) - float64(volatileRes.Counters.Cycles)
			}},
			{"checkpoints", func(r emu.Result) float64 { return float64(r.Counters.Checkpoints) }},
			{"nvm reads", func(r emu.Result) float64 { return float64(r.Counters.NVMReadBytes) }},
			{"nvm writes", func(r emu.Result) float64 { return float64(r.Counters.NVMWriteBytes) }},
		}
		for _, mr := range metricRows {
			row := []string{name, mr.metric}
			baseVal := mr.value(naive)
			for _, res := range results {
				if baseVal == 0 {
					row = append(row, "n/a")
					continue
				}
				row = append(row, fmtPct(1-mr.value(res)/baseVal))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// fig8 regenerates Figure 8: NACHO's design space — cache sizes 256/512/1024
// bytes and 2/4 ways — normalized to the volatile system.
func fig8(tl *tally, benchmarks []string) (*Report, error) {
	rep := &Report{
		Title:  "Figure 8: NACHO cache design space, normalized to a fully volatile system",
		Header: []string{"benchmark", "256B/2w", "512B/2w", "1024B/2w", "256B/4w", "512B/4w", "1024B/4w"},
	}
	for _, name := range benchmarks {
		p, ok := program.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		base, err := tl.get(p, systems.KindVolatile, DefaultRunConfig())
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, ways := range []int{2, 4} {
			for _, size := range []int{256, 512, 1024} {
				cfg := DefaultRunConfig()
				cfg.CacheSize = size
				cfg.Ways = ways
				res, err := tl.get(p, systems.KindNACHO, cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtRatio(float64(res.Counters.Cycles)/float64(base.Counters.Cycles)))
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Table1 renders the paper's qualitative feature matrix (Table 1) for the
// systems implemented in this repository.
func Table1() *Report {
	yes, no := "yes", "no"
	return &Report{
		Title:  "Table 1: feature matrix of the implemented systems",
		Header: []string{"feature", "clank", "prowl", "replaycache", "nacho"},
		Rows: [][]string{
			{"supports data cache", no, yes, yes, yes},
			{"low checkpoint count", no, yes, yes, yes},
			{"low NVM reads/writes", no, yes, yes, yes},
			{"incorruptible", yes, yes, "partially", yes},
			{"no compiler transformations", yes, yes, no, yes},
			{"cache architecture-agnostic", "n/a", no, yes, yes},
			{"no extra hardware required", "n/a", yes, no, yes},
			{"tight data cache integration", "n/a", no, no, yes},
			{"considers program execution flow", "n/a", no, no, yes},
		},
	}
}

// AllBenchmarks returns the full benchmark list in registry order.
func AllBenchmarks() []string {
	names := program.Names()
	sort.Strings(names)
	return names
}
