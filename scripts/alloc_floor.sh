#!/usr/bin/env bash
# alloc_floor.sh — the allocation floor of the message life cycle
# (ROADMAP aim 1, DESIGN §3.2). Runs each gated workload of
# BENCHMARK.json for a few seconds untraced, reads allocs_per_msg from
# the final JSON line, and exits non-zero when a workload allocates more
# heap objects per delivered message than its budget or fails a
# delivery. The metric is a count from runtime.MemStats.Mallocs: it
# repeats to four digits on any runner, so it can gate where timings
# cannot. Run via `make alloc-floor` from the repository root.
set -euo pipefail
seconds=${1:-3}

# workload:budget — the message life cycle allocates nothing on any
# transport, and since the arena free lists are the manager's own, not
# sync.Pools, not even after the collection each repetition starts
# with: the best repetition must read exactly 0.
floors="tcp_4k_lockstep:0 shm_4k_lockstep:0 tcp_4k_stream:0 tcp_1m_sfm:0"

status=0
for f in $floors; do
	w=${f%%:*} budget=${f##*:}
	if [ "${w#shm_}" != "$w" ] && [ ! -d /dev/shm ]; then
		# Not a pass: say so where a skipped step would read as green.
		echo "alloc-floor: NOT VERIFIED $w: /dev/shm is absent on this host" >&2
		continue
	fi
	line=$(bash benchmark/run.sh --workload "$w" --seconds "$seconds" --trace 0 | tail -n 1)
	allocs=$(printf '%s' "$line" | sed -n 's/.*"allocs_per_msg":{"value":\([0-9.eE+-]*\).*/\1/p')
	failed=$(printf '%s' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	attempted=$(printf '%s' "$line" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p')
	if [ -z "$allocs" ] || [ -z "$failed" ]; then
		echo "alloc-floor: FAIL $w: no allocs_per_msg/failed in the benchmark's last line: $line" >&2
		status=1
		continue
	fi
	if ! awk -v a="$allocs" -v b="$budget" 'BEGIN { exit !(a <= b) }'; then
		echo "alloc-floor: FAIL $w: allocs_per_msg $allocs exceeds the budget of $budget" >&2
		status=1
	elif [ "$failed" -ne 0 ]; then
		echo "alloc-floor: FAIL $w: $failed of $attempted messages failed" >&2
		status=1
	else
		printf 'alloc-floor: ok   %-16s allocs_per_msg %.4f (budget %s), 0 of %s failed\n' "$w" "$allocs" "$budget" "$attempted"
	fi
done
exit $status
