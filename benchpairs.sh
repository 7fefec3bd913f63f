#!/usr/bin/env bash
# benchpairs.sh — compare two versions of the repository on the end-to-end
# benchmark (perfbench/, contract in BENCHMARK.json) and print one JSON
# record to standard output.
#
#   bash benchpairs.sh BASE CHANGE [SEED] [PAIRS] [SECONDS]
#
# BASE and CHANGE are each a git revision of this repository or a directory
# holding a checkout. For every workload it runs PAIRS (default 10)
# alternating untraced passes of --seconds SECONDS (default 25, BENCHMARK.json's
# run_seconds), BASE first in even pairs and CHANGE first in odd ones, at
# benchmark seed SEED (default 5). It reports each side's median and
# quartiles of the five end-to-end metrics, how many pairs CHANGE won on
# wall_s, and the ops that failed; then one traced pass per side with the
# per-layer figures. Needs jq. Every build and run stays in each checkout's
# .bench_build/; revisions are exported to a temporary directory that is
# removed on exit.
set -euo pipefail
cd "$(dirname "$0")"
base=$1 change=$2 seed=${3:-5} pairs=${4:-10} seconds=${5:-25}
workloads="paper fuzz crash-explore"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# tree REF NAME prints a directory holding REF: REF itself when it is one,
# else an export of the revision.
tree() {
	if [ -d "$1" ]; then
		(cd "$1" && pwd)
	else
		mkdir -p "$tmp/$2"
		git archive "$1" | tar -x -C "$tmp/$2"
		echo "$tmp/$2"
	fi
}
dirs=("$(tree "$base" base)" "$(tree "$change" change)")

# run DIR ARGS... prints the last line of one perfbench run: its JSON result.
run() {
	local dir=$1
	shift
	(cd "$dir" && bash perfbench/run.sh "$@" 2>/dev/null | tail -1)
}

quartiles='def q($p): sort as $s | ($p * (($s | length) - 1)) as $i
	| ($i | floor) as $lo | ($i | ceil) as $hi
	| $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo);
def stats: {q1: q(0.25), median: q(0.5), q3: q(0.75), runs: .};'
layers='["wall_s", "mem.self_s", "verify.self_s", "track.self_s", "emu.self_s",
	"runtime.gc_s", "profile.total_s", "runtime.alloc_mb", "runtime.gc_cycles",
	"harness.runs", "harness.cache_hits", "harness.unique_cells", "emu.runs_ref", "emu.runs_aot",
	"emu.instr_ref", "emu.instr_aot"]'

results=()
for w in $workloads; do
	out="$tmp/$w.jsonl"
	: >"$out"
	for ((i = 0; i < pairs; i++)); do
		order="0 1"
		if ((i % 2 == 1)); then order="1 0"; fi
		for side in $order; do
			r=$(run "${dirs[$side]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0)
			jq -c --argjson pair "$i" --argjson side "$side" '{pair: $pair, side: $side, failed: .failed, m: (.metrics | map_values(.value))}' <<<"$r" >>"$out"
		done
	done
	traced=()
	for side in 0 1; do
		traced+=("$(run "${dirs[$side]}" --workload "$w" --seed "$seed" --trace 1 |
			jq -c --argjson keep "$layers" '.metrics | with_entries(select(.key as $k | $keep | index($k))) | map_values(.value)')")
	done
	results+=("$(jq -s -c --arg w "$w" --argjson tb "${traced[0]}" --argjson tc "${traced[1]}" "$quartiles"'
		def side($s): map(select(.side == $s));
		def summary($rows): {
			ops_failed: ($rows | map(.failed) | add),
			wall_s: ($rows | map(.m.wall_s) | stats), cpu_s: ($rows | map(.m.cpu_s) | stats),
			setup_s: ($rows | map(.m.setup_s) | stats), peak_rss_mb: ($rows | map(.m.peak_rss_mb) | stats),
			sim_mhz: ($rows | map(.m.sim_mhz) | stats)};
		{(.[0] | $w): {
			base: summary(side(0)), change: summary(side(1)),
			change_wins_wall_s: ([group_by(.pair)[] | select(length == 2)
				| select((map(select(.side == 1))[0].m.wall_s) < (map(select(.side == 0))[0].m.wall_s))] | length),
			traced: {base: $tb, change: $tc}}}' "$out")")
done

printf '%s\n' "${results[@]}" | jq -s --arg base "$base" --arg change "$change" \
	--argjson seed "$seed" --argjson pairs "$pairs" --argjson seconds "$seconds" \
	--arg host "$(uname -m), $(nproc) CPUs, $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ //')" '
	{command: "bash benchpairs.sh \($base) \($change) \($seed) \($pairs) \($seconds)",
	 host: $host, seed: $seed, pairs: $pairs, seconds: $seconds, workloads: add}'
