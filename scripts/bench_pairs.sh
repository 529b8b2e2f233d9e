#!/usr/bin/env bash
# bench_pairs.sh — paired parent/change runs of one benchmark workload
# (choosing-metrics §8). Builds <parent-ref> from a `git archive` export
# in a temporary directory, builds the working tree in place, and runs
# the workload in alternating order — parent first in odd pairs, change
# first in even ones — with the benchmark's own run length. Prints, per
# end-to-end metric of BENCHMARK.json: each side's median and quartiles,
# how many pairs the change won, and a verdict:
#
#   gain        change won >= 9/10 of the pairs (ties count for neither)
#               and the medians differ by more than the parent's own
#               interquartile distance
#   worse       the same, with the parent winning
#   unresolved  the medians differ, but by less than the parent's spread
#               or without enough wins either way
#   same        every pair tied (counts such as allocs_per_msg)
#
# Run from the repository root:
#   bash scripts/bench_pairs.sh <parent-ref> <workload> [pairs] [seconds]
set -euo pipefail
ref=${1:?usage: bench_pairs.sh <parent-ref> <workload> [pairs] [seconds]}
workload=${2:?usage: bench_pairs.sh <parent-ref> <workload> [pairs] [seconds]}
pairs=${3:-10}
seconds=${4:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}

root=$PWD
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$ref" | tar -x -C "$tmp/parent"

run() { # side dir -> appends the run's final JSON line to $tmp/<side>.jsonl
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seconds "$seconds" --trace 0 --out "$tmp/out_$1") |
		tail -n 1 >>"$tmp/$1.jsonl"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "pair $i/$pairs: $side" >&2
		if [ "$side" = parent ]; then run parent "$tmp/parent"; else run change "$root"; fi
	done
done

echo "## $workload: $pairs alternating pairs, ${seconds}s each, parent $(git rev-parse --short "$ref") vs working tree"
printf '%-24s %-7s %36s %36s %9s  %s\n' metric better "parent median [q1, q3]" "change median [q1, q3]" wins verdict
# The end-to-end metrics are the BENCHMARK.json entries that carry a bound.
grep '"bound"' BENCHMARK.json | sed 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/' |
	while read -r metric better; do
		for side in parent change; do
			sed -n "s/.*\"$metric\":{\"value\":\([0-9.eE+-]*\).*/\1/p" "$tmp/$side.jsonl" >"$tmp/$side.$metric"
		done
		paste "$tmp/parent.$metric" "$tmp/change.$metric" | awk -v metric="$metric" -v better="$better" '
			function sorted(src, dst, n,    i, j, x) { # insertion sort: n is a handful of runs
				for (i = 1; i <= n; i++) {
					x = src[i]
					for (j = i - 1; j >= 1 && dst[j] > x; j--) dst[j + 1] = dst[j]
					dst[j + 1] = x
				}
			}
			function quantile(v, n, q,    pos, lo, frac) { # v sorted ascending, 1-based
				pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
				return lo >= n ? v[n] : v[lo] + frac * (v[lo + 1] - v[lo])
			}
			{
				p[NR] = $1 + 0; c[NR] = $2 + 0
				if ($1 == $2) ties++
				else if ((better == "lower") == ($2 < $1)) wins++
			}
			END {
				n = NR
				sorted(p, ps, n); sorted(c, cs, n)
				pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
				pq1 = quantile(ps, n, 0.25); pq3 = quantile(ps, n, 0.75)
				cq1 = quantile(cs, n, 0.25); cq3 = quantile(cs, n, 0.75)
				decided = n - ties; losses = decided - wins
				diff = cm - pm; if (diff < 0) diff = -diff
				if (decided == 0) verdict = "same"
				else if (wins >= 0.9 * n && diff > pq3 - pq1) verdict = "gain"
				else if (losses >= 0.9 * n && diff > pq3 - pq1) verdict = "worse"
				else verdict = "unresolved"
				printf "%-24s %-7s %36s %36s %9s  %s\n", metric, better,
					sprintf("%.6g [%.6g, %.6g]", pm, pq1, pq3),
					sprintf("%.6g [%.6g, %.6g]", cm, cq1, cq3),
					sprintf("%d/%d", wins, n), verdict
			}'
	done
failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$tmp/parent.jsonl" "$tmp/change.jsonl" | awk '{ s += $1 } END { print s + 0 }')
echo "failed deliveries, both sides, all runs: $failed"
