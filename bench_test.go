package nacho

// The benchmark harness of deliverable (d): one testing.B benchmark per
// table and figure of the paper's evaluation (Section 6.2). Each regenerates
// its experiment and reports the headline aggregate as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. cmd/nachobench prints the complete rows.
//
// Experiment regeneration inherits the harness default parallelism (one
// worker per CPU); BenchmarkFig5Sequential pins the pool to one worker so
// the parallel speedup is measurable as the ratio of the two Fig5
// benchmarks. Each iteration starts from an empty run cache, so it executes
// its experiment's whole matrix.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"nacho/internal/harness"
	"nacho/internal/program"
	"nacho/internal/systems"
)

// reportMeans parses ratio columns of a report and publishes their means.
func reportMeans(b *testing.B, rep *harness.Report, cols map[string]int) {
	b.Helper()
	for name, col := range cols {
		var sum float64
		var n int
		for _, row := range rep.Rows {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
			if err != nil {
				continue // non-numeric cell (absolute-count fallback)
			}
			sum += v
			n++
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), name)
		}
	}
}

// BenchmarkFig5ExecutionTime regenerates Figure 5 and reports the mean
// execution time of each system normalized to the fully volatile baseline.
func BenchmarkFig5ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.ResetRunCache()
		rep, err := harness.RunNamedExperiment("fig5", harness.AllBenchmarks())
		if err != nil {
			b.Fatal(err)
		}
		reportMeans(b, rep, map[string]int{
			"clank-norm":  2,
			"prowl-norm":  3,
			"replay-norm": 4,
			"nacho-norm":  5,
			"oracle-norm": 6,
		})
	}
}

// BenchmarkFig5Sequential regenerates Figure 5 with the worker pool
// disabled: the sequential baseline for the parallel harness speedup
// (compare against BenchmarkFig5ExecutionTime).
func BenchmarkFig5Sequential(b *testing.B) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	for i := 0; i < b.N; i++ {
		harness.ResetRunCache()
		if _, err := harness.RunNamedExperiment("fig5", harness.AllBenchmarks()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Checkpoints regenerates Figure 6 and reports mean checkpoint
// counts normalized to Clank.
func BenchmarkFig6Checkpoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.ResetRunCache()
		rep, err := harness.RunNamedExperiment("fig6", harness.Fig6Benchmarks())
		if err != nil {
			b.Fatal(err)
		}
		reportMeans(b, rep, map[string]int{"prowl/clank": 3, "nacho/clank": 4})
	}
}

// BenchmarkFig7NVMTransfers regenerates Figure 7 and reports mean NVM byte
// traffic normalized to Clank (the paper's 82% average reduction claim
// corresponds to nacho/clank ~= 0.18).
func BenchmarkFig7NVMTransfers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.ResetRunCache()
		rep, err := harness.RunNamedExperiment("fig7", harness.Fig6Benchmarks())
		if err != nil {
			b.Fatal(err)
		}
		reportMeans(b, rep, map[string]int{
			"prowl/clank": 2, "replay/clank": 3, "nacho/clank": 4,
		})
	}
}

// BenchmarkTable2ReexecutionOverhead regenerates Table 2 and reports the
// mean re-execution overhead (%) at the shortest and longest on-durations.
func BenchmarkTable2ReexecutionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.ResetRunCache()
		rep, err := harness.RunNamedExperiment("table2", harness.Table2Benchmarks())
		if err != nil {
			b.Fatal(err)
		}
		mean := func(row []string) float64 {
			var sum float64
			for _, cell := range row[1:] {
				v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
				if err == nil {
					sum += v
				}
			}
			return sum / float64(len(row)-1)
		}
		b.ReportMetric(mean(rep.Rows[0]), "overhead-5ms-%")
		b.ReportMetric(mean(rep.Rows[len(rep.Rows)-1]), "overhead-100ms-%")
	}
}

// BenchmarkTable3Ablation regenerates Table 3 and reports the mean overhead
// reduction of each NACHO component versus Naive NACHO.
func BenchmarkTable3Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.ResetRunCache()
		rep, err := harness.RunNamedExperiment("table3", harness.Table3Benchmarks())
		if err != nil {
			b.Fatal(err)
		}
		var pw, st, n float64
		var rows int
		for _, row := range rep.Rows {
			if row[1] != "overhead" {
				continue
			}
			parse := func(s string) float64 {
				v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
				return v
			}
			pw += parse(row[2])
			st += parse(row[3])
			n += parse(row[4])
			rows++
		}
		if rows > 0 {
			b.ReportMetric(pw/float64(rows), "pw-reduction-%")
			b.ReportMetric(st/float64(rows), "st-reduction-%")
			b.ReportMetric(n/float64(rows), "nacho-reduction-%")
		}
	}
}

// BenchmarkFig8DesignSpace regenerates Figure 8 and reports the mean
// normalized execution time of the smallest and largest configurations.
func BenchmarkFig8DesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.ResetRunCache()
		rep, err := harness.RunNamedExperiment("fig8", harness.AllBenchmarks())
		if err != nil {
			b.Fatal(err)
		}
		reportMeans(b, rep, map[string]int{
			"256B-2w": 1, "512B-2w": 2, "1024B-2w": 3, "512B-4w": 5,
		})
	}
}

// BenchmarkEmulatorThroughput measures raw interpreter speed (simulated
// instructions per wall second) on the volatile baseline with verification
// off — the simulator-infrastructure cost.
func BenchmarkEmulatorThroughput(b *testing.B) {
	var instructions uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Benchmark: "towers", System: Volatile, DisableVerify: true})
		if err != nil {
			b.Fatal(err)
		}
		instructions += res.Instructions
	}
	b.ReportMetric(float64(instructions)/b.Elapsed().Seconds()/1e6, "sim-MIPS")
}

// memBoundBenchmarks are the memory-bound workloads of the engine-throughput
// comparison (BENCH_emu.json): load/store-dense programs where per-access
// dispatch, not ALU batching, dominates interpreter time.
var memBoundBenchmarks = []string{"towers", "dijkstra", "picojpeg"}

// benchmarkMemThroughput runs the memory-bound suite as Run would under
// Config{System: Volatile, DisableVerify: true}, on the reference
// interpreter when reference is set (harness.RunConfig.Reference, the
// referee switch no public field reaches) and on the AOT engine otherwise.
func benchmarkMemThroughput(b *testing.B, reference bool) {
	rc := Config{System: Volatile, DisableVerify: true}.withDefaults().runConfig()
	rc.Reference = reference
	for _, name := range memBoundBenchmarks {
		p, ok := program.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %q", name)
		}
		b.Run(name, func(b *testing.B) {
			var instructions uint64
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(p, systems.KindVolatile, rc)
				if err != nil {
					b.Fatal(err)
				}
				instructions += res.Counters.Instructions
			}
			b.ReportMetric(float64(instructions)/b.Elapsed().Seconds()/1e6, "sim-MIPS")
		})
	}
}

// BenchmarkEmulatorThroughputMemReference is the reference-interpreter
// baseline for the memory-bound suite; the ratio to
// BenchmarkEmulatorThroughputMemAOT is the AOT engine's speedup.
func BenchmarkEmulatorThroughputMemReference(b *testing.B) { benchmarkMemThroughput(b, true) }

// BenchmarkEmulatorThroughputMemAOT measures the compiled threaded-code
// engine, the one every untraced run executes on, on the memory-bound suite.
func BenchmarkEmulatorThroughputMemAOT(b *testing.B) { benchmarkMemThroughput(b, false) }

// aluKernelIters sizes the ALU throughput kernel: iterations of the unrolled
// mixing block, ~2.2M retired instructions per run.
const aluKernelIters = 30_000

// aluKernelSource builds an ALU-dense RV32IM kernel: iters iterations of a
// 72-instruction unrolled xorshift/multiply mixing block with no loads,
// stores, or branches inside the unroll — the workload class the AOT
// engine's batched ALU runs exist for, and the complement of the memory-bound towers
// workload measured by BenchmarkEmulatorThroughput.
func aluKernelSource(iters int) string {
	var sb strings.Builder
	sb.WriteString(`	.equ MMIO_RESULT, 0x000F0004
	.equ MMIO_EXIT,   0x000F0000
	.text
_start:
	li   a0, 0x12345678
	li   a1, 0
`)
	fmt.Fprintf(&sb, "	li   a2, %d\n", iters)
	sb.WriteString("alu_loop:\n")
	for i := 0; i < 8; i++ {
		sb.WriteString(`	slli t0, a0, 13
	xor  a0, a0, t0
	srli t1, a0, 17
	xor  a0, a0, t1
	slli t2, a0, 5
	xor  a0, a0, t2
	add  a1, a1, a0
	mul  t3, a0, a1
	xor  a1, a1, t3
`)
	}
	sb.WriteString(`	addi a2, a2, -1
	bnez a2, alu_loop
	li   t0, MMIO_RESULT
	sw   a1, 0(t0)
	li   t0, MMIO_EXIT
	sw   zero, 0(t0)
`)
	return sb.String()
}

// benchmarkALUKernel runs the ALU kernel as RunSource would under cfg,
// assembling it every iteration, on the reference interpreter when
// reference is set (harness.RunConfig.Reference) and on the AOT engine
// otherwise.
func benchmarkALUKernel(b *testing.B, cfg Config, reference bool) {
	src := aluKernelSource(aluKernelIters)
	cfg = cfg.withDefaults()
	rc := cfg.runConfig()
	rc.Reference = reference
	var instructions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := program.FromSource("alu-kernel", src)
		if err != nil {
			b.Fatal(err)
		}
		res, err := harness.RunImage(img, systems.Kind(cfg.System), rc, false)
		if err != nil {
			b.Fatal(err)
		}
		instructions += res.Counters.Instructions
	}
	b.ReportMetric(float64(instructions)/b.Elapsed().Seconds()/1e6, "sim-MIPS")
}

// BenchmarkEmulatorThroughputALU measures the AOT threaded-code engine on
// the ALU kernel, failure-free.
func BenchmarkEmulatorThroughputALU(b *testing.B) {
	benchmarkALUKernel(b, Config{System: Volatile, DisableVerify: true}, false)
}

// BenchmarkEmulatorThroughputALUReference runs the same kernel on the
// per-instruction reference engine; the ratio to BenchmarkEmulatorThroughputALU
// is the AOT engine's speedup.
func BenchmarkEmulatorThroughputALUReference(b *testing.B) {
	benchmarkALUKernel(b, Config{System: Volatile, DisableVerify: true}, true)
}

// BenchmarkEmulatorThroughputALUIntermittent measures the AOT engine on the
// ALU kernel under dense power failures (1 ms on-durations on NACHO, so
// checkpoints guarantee forward progress): the horizon clamps to each failure
// instant and the engine degrades gracefully rather than falling off a cliff.
func BenchmarkEmulatorThroughputALUIntermittent(b *testing.B) {
	benchmarkALUKernel(b, Config{System: NACHO, DisableVerify: true, OnDurationMs: 1}, false)
}

// benchmarkCachedThroughput measures simulated-instruction throughput on a
// cache-based system over the memory-bound suite: every data access calls
// the system's full Load/Store, so the cache model's hit path dominates.
func benchmarkCachedThroughput(b *testing.B, system System, onMs float64) {
	for _, name := range memBoundBenchmarks {
		b.Run(name, func(b *testing.B) {
			var instructions uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Benchmark: name, System: system, DisableVerify: true,
					OnDurationMs: onMs,
				})
				if err != nil {
					b.Fatal(err)
				}
				instructions += res.Instructions
			}
			b.ReportMetric(float64(instructions)/b.Elapsed().Seconds()/1e6, "sim-MIPS")
		})
	}
}

// BenchmarkEmulatorThroughputNACHO measures the default engine on the
// memory-bound suite under NACHO, failure-free: every data access runs the
// full cache controller, so cached-hit dispatch dominates.
func BenchmarkEmulatorThroughputNACHO(b *testing.B) {
	benchmarkCachedThroughput(b, NACHO, 0)
}

// BenchmarkEmulatorThroughputNACHOIntermittent measures the memory-bound
// suite under NACHO with the paper's periodic 1 ms power failures and
// forward-progress checkpoints.
func BenchmarkEmulatorThroughputNACHOIntermittent(b *testing.B) {
	benchmarkCachedThroughput(b, NACHO, 1)
}

// BenchmarkEmulatorThroughputPROWL measures the memory-bound suite on a
// compared cache baseline: PROWL's skewed-associative cache.
func BenchmarkEmulatorThroughputPROWL(b *testing.B) {
	benchmarkCachedThroughput(b, PROWL, 0)
}

// BenchmarkNACHOSimulation measures full NACHO simulation speed including
// the cache controller and verification.
func BenchmarkNACHOSimulation(b *testing.B) {
	var instructions uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Benchmark: "aes"})
		if err != nil {
			b.Fatal(err)
		}
		instructions += res.Instructions
	}
	b.ReportMetric(float64(instructions)/b.Elapsed().Seconds()/1e6, "sim-MIPS")
}

// BenchmarkIntermittentSimulation measures simulation speed under dense
// power-failure injection (the Table 2 workload class).
func BenchmarkIntermittentSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Benchmark: "crc", OnDurationMs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
