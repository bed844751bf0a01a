#!/usr/bin/env bash
# benchgate: the benchmark gate for a change. Runs the BENCHMARK.json
# harness (bench/, as committed in each tree) on a base revision and on
# this checkout, and fails when the checkout is worse than the base.
#
#   scripts/benchgate.sh <base-ref>
#
# The base is exported with git archive into a temporary directory, so
# the repository's .git is left as it was. Both trees run every workload
# in PAIRS pairs of runs, seeds 1..PAIRS; the tree that goes first
# alternates from pair to pair, so drift on the machine falls on both.
# The gate fails when, on any workload:
#
#   - the median of the checkout's runs of an end-to-end metric is worse
#     than the median of the base's runs by more than the metric's
#     bound, in the metric's own direction (BENCHMARK.json);
#   - a run of the checkout reports "correct":false (a base run that
#     does is shown but does not fail the gate: the change may mend it);
#   - the checkout fails a larger share of its operations than the base.
#
# A metric that passes reads "unresolved" instead of "ok" when the
# base's own runs of it spread wider than its bound ((max - min) /
# median): such runs cannot tell a change within the bound from none,
# so the verdict is "within bound", not "unchanged". It does not fail
# the gate.
#
# Every result line is kept in .bench_build/benchgate/results.jsonl as
# {tree, seed, workload, result}, and each run's report in a .log file
# beside it.
set -euo pipefail
cd "$(dirname "$0")/.."

PAIRS=3

if [ $# -ne 1 ]; then
	echo "usage: scripts/benchgate.sh <base-ref>" >&2
	exit 2
fi
base_sha=$(git rev-parse --verify "$1^{commit}")
head_dir=$(pwd)
out="$head_dir/.bench_build/benchgate"
rm -rf "$out"
mkdir -p "$out"
base_dir=$(mktemp -d)
trap 'rm -rf "$base_dir"' EXIT
git archive --format=tar "$base_sha" | tar -x -C "$base_dir"

# run <tree> <dir> <seed>: every workload once, its result lines
# appended to results.jsonl.
run() {
	local log="$out/$1-seed$3.log"
	echo "benchgate: $1 (seed $3)"
	if ! go run -C "$2/bench" . -seed "$3" >"$out/$1-seed$3.out" 2>"$log"; then
		tail -n 20 "$log" >&2
		echo "benchgate: FAIL: the harness failed on $1 (seed $3); see $log" >&2
		exit 1
	fi
	while read -r workload json; do
		jq -c --arg t "$1" --argjson s "$3" --arg w "$workload" \
			'{tree: $t, seed: $s, workload: $w, result: .}' <<<"$json" >>"$out/results.jsonl"
	done <"$out/$1-seed$3.out"
}

for seed in $(seq 1 "$PAIRS"); do
	if [ $((seed % 2)) -eq 1 ]; then
		run base "$base_dir" "$seed"
		run head "$head_dir" "$seed"
	else
		run head "$head_dir" "$seed"
		run base "$base_dir" "$seed"
	fi
done

jq -n -r --slurpfile bf BENCHMARK.json '
	def median: sort | if length == 0 then null
		elif length % 2 == 1 then .[length / 2 | floor]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def r: if type == "number" then . * 1000 | round / 1000 else . end;
	# worse: how much worse h is than b, as a share of b, in the
	# metric'"'"'s own direction (the harness'"'"'s rule).
	def worse($m; $b; $h): if $b == 0 then 0
		elif $m.better == "higher" then ($b - $h) / $b
		else ($h - $b) / $b end;
	def share: (map(.result.failed) | add) / ([(map(.result.attempted) | add), 1] | max);
	def row: "| " + (map(tostring) | join(" | ")) + " |";
	"| workload | metric | base median | head median | worse by | bound | verdict |",
	"|---|---|---|---|---|---|---|",
	([inputs] as $runs
	| ($runs | map(.workload) | unique)[] as $w
	| ($runs | map(select(.workload == $w))) as $rw
	| ($rw | map(select(.tree == "base"))) as $b
	| ($rw | map(select(.tree == "head"))) as $h
	| (($bf[0].end_to_end[] as $m
		| ($b | map(.result.metrics[$m.name].value // empty)) as $bv
		| ($bv | median) as $bm
		| ($h | map(.result.metrics[$m.name].value // empty) | median) as $hm
		| if $bm == null or $hm == null then
			[$w, $m.name, "-", "-", "-", "\($m.bound * 100)%", "not reported"]
		else
			worse($m; $bm; $hm) as $x
			| (if $bm == 0 then 0 else (($bv | max) - ($bv | min)) / $bm end) as $spread
			| [$w, $m.name, ($bm | r), ($hm | r), "\($x * 100 | r)%", "\($m.bound * 100)%",
				(if $x > $m.bound then "FAIL" elif $spread > $m.bound then "unresolved" else "ok" end)]
		end),
	  [$w, "failed share", ($b | share | r), ($h | share | r), "-", "no larger",
		(if ($h | share) > ($b | share) then "FAIL" else "ok" end)],
	  [$w, "correct", ($b | all(.result.correct)), ($h | all(.result.correct)), "-", "head true",
		(if ($h | all(.result.correct)) then "ok" else "FAIL" end)]
	) | row)
' "$out/results.jsonl" | tee "$out/table.md"

if grep -q '| FAIL |$' "$out/table.md"; then
	echo "benchgate: FAIL" >&2
	exit 1
fi
echo "benchgate: OK"
