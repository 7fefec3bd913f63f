#!/bin/sh
# ci.sh — the repository's full verification gate (see README §Install).
#
#   ./ci.sh
#
# Runs formatting, vet, build, the full test suite, and the race-detector
# pass over the experiment harness (the worker pool + singleflight run
# cache carry the only intentional concurrency in the repository).
set -eu
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...
# The end-to-end benchmark is its own module (perfbench/go.mod), so the root
# build and test above never compile it; a change that broke it would pass
# them.
(cd perfbench && go vet ./... && go test ./...)
# Every experiment in a process shares one run cache, so a test that leans on
# what an earlier test left in it passes only in file order. A shuffled pass
# over the packages that regenerate experiments catches such a test.
go test -shuffle=on ./internal/harness/ .
# The harness race pass includes the engine-equivalence suite
# (TestEngineEquivalence*) over both engines, which share one run loop
# (emu's runSlice): every boundary check is made once per iteration, then
# the AOT threaded-code engine (aot) runs its window up to the safe horizon
# where the per-instruction reference interpreter (ref) takes one step. The
# two must produce byte-identical results, including Fork/RunUntil mid-run
# state and the fuzzer-generated programs, and, with a recording probe
# attached, the same event stream, under the race detector too. The
# snapshot/mem pass exercises the copy-on-write fork machinery (refcounted
# leaves and pages; mem's TestForkConcurrentWriters writes concurrent forks
# of one space) and its release protocol (a leaf or page goes to the free
# list when its count reaches zero, whether a copy or a Release dropped the
# last reference, and writable draws from that list; mem's
# TestForkConcurrentRelease forks, writes and releases from several
# goroutines) under the race detector; power rides along for its schedule
# property tests. Harness and campaign workers fork each image's frozen
# space concurrently and release every oracle run's spaces, so the fuzzer
# runs here too, with the tracker and verifier packages whose interval state
# shares the page-table layout and its free lists.
go test -race ./internal/harness/... ./internal/core/ ./internal/systems/
go test -race ./internal/snapshot/ ./internal/mem/ ./internal/power/
go test -race ./internal/fuzzer/ ./internal/verify/ ./internal/track/

# Benchmark smoke: the cache, tracker, metrics-registry and memory hot-path
# benchmarks must at least run. One iteration is enough to catch a broken
# benchmark; timing regressions are judged manually.
go test -bench=. -benchtime=1x ./internal/cache/ ./internal/track/ ./internal/telemetry/ ./internal/mem/

# Emulator-throughput smoke: one timed pass of the ALU-kernel benchmark
# (default engine = AOT) and one of the memory-bound AOT benchmark,
# printing sim-MIPS so an engine regression is visible in the CI log
# (reference numbers live in BENCH_emu.json).
go test -run xxx -bench 'BenchmarkEmulatorThroughputALU$|BenchmarkEmulatorThroughputMemAOT' -benchtime 1x . | grep -E 'sim-MIPS|^Benchmark'

# Cached-system smoke: the memory-bound suite under NACHO with a 1 ms
# periodic power schedule, sim-MIPS in the CI log. Both engines reach the
# memory system through Controller.Load/Store, so its hit path must stay
# allocation-free: the ZeroAlloc gates pin AllocsPerRun == 0 for a warm
# controller load and store hit, cache Probe/Touch, the page table's word
# Read/Write and never-written Read, the tracker's Observe/Reset and the
# verifier's CPURead/CPUWrite/IntervalBoundary (run without -race — the race
# allocator breaks the pin). Beside them, mem's TestReleaseReturnsOwnership
# pins that a parent whose only fork was released writes in place, and the
# fuzzer's TestCheckAllocatedBytes pins the bytes one warm oracle check
# allocates across the default systems (measured plus 25%, GC off while it
# counts): every oracle run gives its memory back to the free lists.
go test -run xxx -bench 'BenchmarkEmulatorThroughputNACHOIntermittent$' -benchtime 1x . | grep -E 'sim-MIPS|^Benchmark'
go test -run 'ZeroAlloc|TestReleaseReturnsOwnership' ./internal/core/ ./internal/cache/ ./internal/mem/ ./internal/track/ ./internal/verify/
go test -run 'TestCheckAllocatedBytes' -v ./internal/fuzzer/

# Telemetry end-to-end: serve, sweep, scrape mid-flight, validate every
# exposition line, check that the nacho_sim_* series grew by the sums of the
# sweep's executed ledger records, then check the Perfetto export loads as
# trace-event JSON.
go test -run 'TestServeTelemetryEndToEnd|TestPerfettoExport' .

# Campaign observability gate: the registry, span-emit and ledger-append hot
# paths must stay allocation-free (AllocsPerRun-pinned), and the campaign
# e2e — nested span tree covering every run, ledger records reproducing the
# report cells, reports byte-identical with observability on — plus the
# dashboard's live bootstrap data must hold under the race detector against
# the parallel harness and the snapshot-fork explorer.
go test -run 'TestHotPathZeroAlloc|TestSpanEmitAllocFree|TestLedgerAppendAllocFree' ./internal/telemetry/
go test -race -run 'TestCampaignEndToEnd|TestCampaignExhaustiveWindows|TestDashboardEndToEnd' .

# Campaign CLI smoke: a small sweep with -trace-campaign and -ledger must
# exit clean and leave a non-empty Perfetto trace and run ledger behind.
go build -o /tmp/nachobench.ci ./cmd/nachobench
/tmp/nachobench.ci -exp fig5 -bench crc -trace-campaign /tmp/nachobench.ci.trace -ledger /tmp/nachobench.ci.ledger >/dev/null 2>/tmp/nachobench.ci.err
test -s /tmp/nachobench.ci.trace
test -s /tmp/nachobench.ci.ledger
# Every ledger record names its run identity: a digest of 64 hex digits.
if grep -qv '"key":"[0-9a-f]\{64\}"' /tmp/nachobench.ci.ledger; then
	echo "ci.sh: a ledger record lacks a 64-hex-digit key:" >&2
	grep -v '"key":"[0-9a-f]\{64\}"' /tmp/nachobench.ci.ledger >&2
	exit 1
fi
# The engine rule (emu.Executed): only a trace selects the reference
# interpreter, so the verified fig5 runs execute on AOT. The timing line and
# every ledger record must say so, and a traced nachosim run must record the
# reference interpreter.
if ! grep -q 'engine runs: aot=' /tmp/nachobench.ci.err || grep -q 'ref=' /tmp/nachobench.ci.err; then
	echo "ci.sh: verified fig5 runs did not all execute on the AOT engine:" >&2
	cat /tmp/nachobench.ci.err >&2
	exit 1
fi
if grep -qv '"engine":"aot"' /tmp/nachobench.ci.ledger; then
	echo "ci.sh: a verified run's ledger record names another engine than aot:" >&2
	grep -v '"engine":"aot"' /tmp/nachobench.ci.ledger >&2
	exit 1
fi
go build -o /tmp/nachosim.ci ./cmd/nachosim
/tmp/nachosim.ci -bench crc -trace /tmp/nachosim.ci.trace -ledger /tmp/nachosim.ci.ledger >/dev/null
test -s /tmp/nachosim.ci.trace
if ! grep -q '"engine":"ref"' /tmp/nachosim.ci.ledger; then
	echo "ci.sh: a traced run did not execute on the reference interpreter:" >&2
	cat /tmp/nachosim.ci.ledger >&2
	exit 1
fi
rm -f /tmp/nachobench.ci /tmp/nachobench.ci.trace /tmp/nachobench.ci.ledger /tmp/nachobench.ci.err
rm -f /tmp/nachosim.ci /tmp/nachosim.ci.trace /tmp/nachosim.ci.ledger

# Crash-consistency fuzzing smoke: a short coverage-guided run of the
# differential oracle (any reported input is a real consistency bug), then
# a fixed-seed campaign run twice — the report must be byte-identical, and
# a finding (non-zero exit) fails the gate.
go test -run Fuzz -fuzz FuzzDifferentialNACHO -fuzztime 10s ./internal/fuzzer/
go build -o /tmp/nachofuzz.ci ./cmd/nachofuzz
/tmp/nachofuzz.ci -seeds 64 2>/dev/null >/tmp/nachofuzz.ci.1
/tmp/nachofuzz.ci -seeds 64 2>/dev/null >/tmp/nachofuzz.ci.2
diff /tmp/nachofuzz.ci.1 /tmp/nachofuzz.ci.2
# Every CLI serves telemetry through nacho.ServeTelemetry: nachofuzz's
# server must start and announce itself, and the campaign must exit clean.
/tmp/nachofuzz.ci -seeds 4 -serve 127.0.0.1:0 >/dev/null 2>/tmp/nachofuzz.ci.serve
grep -q 'telemetry on http://' /tmp/nachofuzz.ci.serve

# Exhaustive-mode smoke: snapshot-fork enumeration of every 3rd crash
# instant in the first two checkpoint intervals, run twice — the report must
# be byte-identical. A fork/boot divergence is an infrastructure ERROR
# (exit 2) and a finding a real bug (exit 1) — both fail the gate. One
# post-failure tail runs per distinct post-reboot state, so the stderr
# progress line, copied into the CI log with the measured speedup, must
# report fewer tails than crash instants. Its counts are pinned too: the
# snapshot scout's halt instant closes each program's last window, so a
# scout that found another halt instant, or another boundary, would move
# the instants or the windows.
/tmp/nachofuzz.ci -seeds 8 -exhaustive -stride 3 >/tmp/nachofuzz.ci.ex.1 2>/tmp/nachofuzz.ci.ex.err
cat /tmp/nachofuzz.ci.ex.err >&2
/tmp/nachofuzz.ci -seeds 8 -exhaustive -stride 3 >/tmp/nachofuzz.ci.ex.2
diff /tmp/nachofuzz.ci.ex.1 /tmp/nachofuzz.ci.ex.2
instants=$(sed -n 's/^exhaustive: \([0-9]*\) crash instants.*/\1/p' /tmp/nachofuzz.ci.ex.err)
windows=$(sed -n 's/^exhaustive: .* across \([0-9]*\) windows.*/\1/p' /tmp/nachofuzz.ci.ex.err)
tails=$(sed -n 's/^exhaustive: .* \([0-9]*\) tails,.*/\1/p' /tmp/nachofuzz.ci.ex.err)
if [ -z "$instants" ] || [ -z "$tails" ] || [ "$tails" -ge "$instants" ]; then
	echo "ci.sh: the exhaustive smoke ran ${tails:-?} tails for ${instants:-?} crash instants; want fewer tails than instants" >&2
	exit 1
fi
if [ "$instants $windows $tails" != "12674 77 1329" ]; then
	echo "ci.sh: the exhaustive smoke covered ${instants:-?} crash instants across ${windows:-?} windows with ${tails:-?} tails; want 12674 across 77 with 1329" >&2
	exit 1
fi
rm -f /tmp/nachofuzz.ci /tmp/nachofuzz.ci.1 /tmp/nachofuzz.ci.2 /tmp/nachofuzz.ci.serve /tmp/nachofuzz.ci.ex.1 /tmp/nachofuzz.ci.ex.2 /tmp/nachofuzz.ci.ex.err

# Persistent run store gate: the full fig5 matrix regenerated twice against
# one store — the cold pass must leave one store object per run its timing
# line says it executed (each run writes its entry before it returns), and
# the warm pass must execute zero simulations, serve every cell from the
# store (hit counts land in the CI log via stderr), and print a
# byte-identical report.
go test -run 'TestStore|TestPut|TestWarmStoreRegeneration|TestProbedRunsBypassStore|TestCorruptStoreEntryReexecutes' ./internal/store/ ./internal/harness/
go build -o /tmp/nachobench.ci ./cmd/nachobench
/tmp/nachobench.ci -exp fig5 -store /tmp/nacho.ci.store >/tmp/nachobench.ci.cold 2>/tmp/nachobench.ci.cold.err
runs=$(sed -n 's/^fig5 timing: \([0-9][0-9]*\) runs.*/\1/p' /tmp/nachobench.ci.cold.err)
objects=$(find /tmp/nacho.ci.store/objects -type f | wc -l | tr -d ' ')
if [ -z "$runs" ] || [ "$objects" != "$runs" ]; then
	echo "ci.sh: the cold fig5 pass executed ${runs:-an unknown number of} runs but left $objects store objects:" >&2
	cat /tmp/nachobench.ci.cold.err >&2
	exit 1
fi
/tmp/nachobench.ci -exp fig5 -store /tmp/nacho.ci.store >/tmp/nachobench.ci.warm 2>/tmp/nachobench.ci.warm.err
diff /tmp/nachobench.ci.cold /tmp/nachobench.ci.warm
grep 'timing: 0 runs' /tmp/nachobench.ci.warm.err
grep 'persistent-store hits' /tmp/nachobench.ci.warm.err
grep 'store /tmp/nacho.ci.store:' /tmp/nachobench.ci.warm.err
rm -rf /tmp/nachobench.ci /tmp/nacho.ci.store /tmp/nachobench.ci.cold /tmp/nachobench.ci.warm /tmp/nachobench.ci.cold.err /tmp/nachobench.ci.warm.err

echo "ci.sh: all checks passed"
