#!/bin/sh
# stats_smoke.sh — end-to-end check of the observability surface.
#
# Boots a standalone rosmaster and a synthetic SFM publisher with its
# metrics endpoint enabled, then verifies that
#
#   1. `rostopic stats` reports live per-topic instrument data (rate,
#      bandwidth, drops, latency quantiles), and
#   2. the node's /metrics endpoint serves a JSON snapshot with the
#      expected schema (node name, per-topic publisher instruments with
#      the per-reason drops_oversized, core life-cycle gauges, graph-plane
#      resilience instruments, and the sharded fan-out plane: per-shard
#      egress counters plus the relay-tier gauges).
#
# Run via `make stats-smoke`. Requires curl; uses jq for JSON schema
# validation when available, plain key grep otherwise.
set -eu

BIN="$(mktemp -d)"
MASTER_PID=""
PUB_PID=""
cleanup() {
    [ -n "$PUB_PID" ] && kill "$PUB_PID" 2>/dev/null || true
    [ -n "$MASTER_PID" ] && kill "$MASTER_PID" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT INT TERM

echo "stats-smoke: building tools"
go build -o "$BIN" ./cmd/rosmaster ./cmd/rospub ./cmd/rostopic

"$BIN/rosmaster" -addr 127.0.0.1:0 >"$BIN/master.log" 2>&1 &
MASTER_PID=$!
MASTER=""
for _ in $(seq 1 100); do
    MASTER=$(sed -n 's/^rosmaster: serving on //p' "$BIN/master.log")
    [ -n "$MASTER" ] && break
    sleep 0.1
done
if [ -z "$MASTER" ]; then
    echo "stats-smoke: rosmaster did not start" >&2
    cat "$BIN/master.log" >&2
    exit 1
fi

# -shards 2 forces the sharded egress path, so the rostopic subscription
# below (plain TCP: rospub does not enable shm) lands in the shard pool
# and the fanout section of the snapshot carries live per-shard data.
"$BIN/rospub" -master "$MASTER" -sfm -rate 100 -width 64 -height 64 \
    -shards 2 -metrics 127.0.0.1:0 >"$BIN/pub.log" 2>&1 &
PUB_PID=$!
METRICS=""
for _ in $(seq 1 100); do
    METRICS=$(sed -n 's/^rospub: metrics on //p' "$BIN/pub.log")
    [ -n "$METRICS" ] && break
    sleep 0.1
done
if [ -z "$METRICS" ]; then
    echo "stats-smoke: rospub did not expose a metrics endpoint" >&2
    cat "$BIN/pub.log" >&2
    exit 1
fi

echo "stats-smoke: sampling topic instruments via rostopic stats"
OUT=$("$BIN/rostopic" -master "$MASTER" -duration 2s stats camera/image)
echo "$OUT"
for want in "rate:" "bandwidth:" "drops:" "p50" "p95" "p99"; do
    if ! echo "$OUT" | grep -q "$want"; then
        echo "stats-smoke: stats output missing \"$want\"" >&2
        exit 1
    fi
done

echo "stats-smoke: checking /metrics JSON schema"
JSON=$(curl -fsS "http://$METRICS/metrics")
if command -v jq >/dev/null 2>&1; then
    echo "$JSON" | jq -e '
        .node == "rospub"
        and (.obs.publishers["camera/image"].messages > 0)
        and (.obs.publishers["camera/image"] | has("drops") and has("drops_oversized"))
        and (.obs.publishers["camera/image"].drops_oversized == 0)
        and (.obs.core | has("live") and has("max_live")
             and has("state_published") and has("bytes_live"))
        and (.obs | has("subscribers") and has("services"))
        and (.obs.graph | has("master_reconnects") and has("replays")
             and has("resync") and has("ghost_expiries")
             and has("malformed_lines") and has("degraded")
             and has("failovers") and has("failed_candidates")
             and has("epoch") and has("replication_lag_ms"))
        and (.obs.graph.degraded == 0)
        and (.obs.graph.failovers == 0)
        and (.obs.graph.epoch >= 1)
        and (.obs.egress | has("writes") and has("frames") and has("coalesced_frames"))
        and (.obs.egress.fanout.active_shards == 2)
        and (.obs.egress.fanout | has("sharded_conns") and has("rebalances")
             and has("shard_drops"))
        and (.obs.egress.fanout.shards | length == 2)
        and ([.obs.egress.fanout.shards[]
              | has("conns") and has("frames") and has("writes") and has("bytes")]
             | all)
        and ([.obs.egress.fanout.shards[].frames] | add > 0)
        and (.obs.relay | has("active") and has("frames_in") and has("bytes_in")
             and has("frames_out") and has("drops") and has("mismatches"))
        and (.obs.shm | has("segments_mapped") and has("bytes_shared")
             and has("descriptor_sends") and has("fallbacks")
             and has("promotions") and has("leases_reaped"))
        and (.obs.shm.fallbacks_by_reason
             | has("oversized") and has("heap_arena") and has("peer_table_full")
               and has("remote_peer") and has("old_build") and has("no_queue"))
        and (.obs.fieldwire | has("masked_subscriptions") and has("sparse_frames")
             and has("full_frames") and has("bytes_saved") and has("mask_rejects")
             and has("decode_errors") and has("mask_fallbacks"))
        and (.obs.fieldwire.rejects_by_reason
             | has("no_wire_map") and has("unmappable_field") and has("variable_tail"))
    ' >/dev/null || {
        echo "stats-smoke: /metrics JSON failed schema check:" >&2
        echo "$JSON" >&2
        exit 1
    }
else
    for key in '"node"' '"obs"' '"publishers"' '"drops_oversized"' '"core"' '"live"' '"max_live"' \
        '"fanout"' '"active_shards"' '"shards"' '"relay"' '"frames_in"' \
        '"failovers"' '"failed_candidates"' '"epoch"' '"replication_lag_ms"' \
        '"fallbacks_by_reason"' '"heap_arena"' '"promotions"' \
        '"fieldwire"' '"masked_subscriptions"' '"sparse_frames"' '"bytes_saved"' \
        '"mask_rejects"' '"rejects_by_reason"' '"no_wire_map"'; do
        if ! echo "$JSON" | grep -q "$key"; then
            echo "stats-smoke: /metrics JSON missing $key" >&2
            exit 1
        fi
    done
fi

echo "stats-smoke: OK"
