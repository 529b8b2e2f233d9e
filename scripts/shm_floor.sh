#!/usr/bin/env bash
# shm_floor.sh — the first timing floor (ROADMAP aim 1, DESIGN §3.7):
# at 4 KiB, in lockstep, a message over shared memory must not take
# longer than the same message over loopback TCP. Runs the two gated
# workloads back to back, untraced, reads latency_p50_us from each final
# JSON line, and exits non-zero unless shm <= tcp with no failed
# delivery. The gate is a ratio of two runs on the same host minutes
# apart, not an absolute time, so a small runner gates as well as a big
# one; the descriptor rides a FIFO, which costs about a third of a
# loopback TCP hop, so the margin is wide. Run via `make shm-floor` from
# the repository root.
set -euo pipefail
seconds=${1:-8}

if [ ! -d /dev/shm ]; then
	# Not a pass: say so where a skipped step would read as green.
	echo "shm-floor: NOT VERIFIED: /dev/shm is absent on this host" >&2
	exit 0
fi

p50_of() { # workload -> its latency_p50_us; a failed delivery fails the floor
	local line p50 failed
	line=$(bash benchmark/run.sh --workload "$1" --seconds "$seconds" --trace 0 | tail -n 1)
	p50=$(printf '%s' "$line" | sed -n 's/.*"latency_p50_us":{"value":\([0-9.eE+-]*\).*/\1/p')
	failed=$(printf '%s' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	if [ -z "$p50" ] || [ -z "$failed" ]; then
		echo "shm-floor: FAIL $1: no latency_p50_us/failed in the benchmark's last line: $line" >&2
		return 1
	fi
	if [ "$failed" -ne 0 ]; then
		echo "shm-floor: FAIL $1: $failed messages failed" >&2
		return 1
	fi
	echo "$p50"
}
shm=$(p50_of shm_4k_lockstep)
tcp=$(p50_of tcp_4k_lockstep)
if awk -v s="$shm" -v t="$tcp" 'BEGIN { exit !(s <= t) }'; then
	printf 'shm-floor: ok   shm_4k_lockstep p50 %s us <= tcp_4k_lockstep p50 %s us (ratio %.2f)\n' "$shm" "$tcp" "$(awk -v s="$shm" -v t="$tcp" 'BEGIN { print s / t }')"
else
	echo "shm-floor: FAIL shm_4k_lockstep p50 $shm us exceeds tcp_4k_lockstep p50 $tcp us" >&2
	exit 1
fi
