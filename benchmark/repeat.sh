#!/usr/bin/env bash
# Runs every workload three times over - two sets with the same seed and
# one with another - and prints, per (metric, workload), how far the sets
# are apart against the metric's bound in BENCHMARK.json. Exits non-zero
# when an end-to-end metric is worse in the later set by more than its
# bound, or a delivery failed.
# Run from the root of the checkout:
#   bash benchmark/repeat.sh [seed [other-seed [seconds]]]
set -euo pipefail
seed=${1:-1} other=${2:-2} seconds=${3:-28}
out=benchmark/out/repeat
workloads=$(bash benchmark/run.sh --list)

run_set() { # name seed
	for w in $workloads; do
		echo "== set $1: $w seed $2" >&2
		bash benchmark/run.sh --workload "$w" --seed "$2" --seconds "$seconds" --out "$out/$1" >/dev/null
	done
}
run_set a "$seed"
run_set b "$seed"
run_set c "$other"

status=0
echo "## same seed, run twice"
bash benchmark/run.sh --compare "$out/a" "$out/b" || status=1
echo "## seed $seed against seed $other"
bash benchmark/run.sh --compare "$out/a" "$out/c" || status=1
exit $status
