#!/bin/sh
# pipeline_check.sh — structural guard for the connection pipeline
# (DESIGN §3.15). The seven hand-copied receive loops, the three
# hand-written send-side encoders, the three ad-hoc header negotiations
# and the two legacy switches this replaced all passed their tests; what
# kept them apart was nothing but convention.
# These greps fail when a twin grows back. Run via `make pipeline-check`
# from the repository root.
set -eu

fail=0
check() { # description, offending lines (empty = ok)
	if [ -n "$2" ]; then
		printf 'pipeline-check: %s\n%s\n' "$1" "$2" >&2
		fail=1
	fi
}
nontest() { grep -v '_test\.go'; }

check "legacy switches are back" \
	"$(grep -rn 'SetLegacy\|legacyEgress\|legacyIngress' --include='*.go' . || true)"

check "a frame header is read outside the pump (internal/ros/pump.go)" \
	"$(grep -rnE '\.(n|N)ext\(\)' internal/ros --include='*.go' | nontest | grep -v '^internal/ros/pump\.go:' || true)"

takes=$(grep -rn '\.take(' internal/ros --include='*.go' | nontest || true)
if [ "$(printf '%s\n' "$takes" | grep -c . || true)" -gt 2 ]; then
	check "more than two scratch takes (the pump's frame helper and the raw sparse sink)" "$takes"
fi

check "a type named frameReader exists" \
	"$(grep -rn 'frameReader' --include='*.go' . || true)"

keys='hdr(Transports|PID|BootID|Transport|ShmPrefix|ShmPeer|ShmLeaseMS|ShmGen|ShmQueue|Fields|Fieldwire|FieldwireReject)\b'
check "a negotiation header key is used outside internal/ros/capability.go" \
	"$(grep -rnE "$keys" internal/ros --include='*.go' | nontest | grep -v '^internal/ros/capability\.go:' || true)"

# The frame queue of an shm link (DESIGN §3.7) is one more io.Reader for
# the same pump and one more sink for the same egress batch: a
# subscription has one pump call site whatever it reads, the queue's two
# ends are opened by the capability exchange alone, and the batch that
# frames descriptors does not know what a net.Conn is.
pumps=$(grep -n 'newPump(' internal/ros/subscriber.go || true)
if [ "$(printf '%s\n' "$pumps" | grep -c . || true)" -ne 1 ]; then
	check "a subscription link starts its pump in one place, socket or queue" "${pumps:-no newPump( call in internal/ros/subscriber.go}"
fi

check "a frame queue end is opened outside internal/ros/capability.go" \
	"$(grep -rnE 'shm\.(Create|Open)Queue' internal/ros --include='*.go' | nontest | grep -v '^internal/ros/capability\.go:' || true)"

check "the egress batch writes to a net.Conn (descriptor frames go to the queue)" \
	"$(grep -n 'net\.Conn' internal/ros/egress.go || true)"

# The send side is one frame batch (DESIGN §3.15, "send side"): the only
# place that writes a topic frame's header and hands vectors to the
# kernel. service.go's writeStatusFrame is the one other frame writer,
# and it stays apart because a reply's status byte sits OUTSIDE the frame
# header — before it, uncovered by its length or checksum — so no
# framing of the batch, whose prefixes all sit inside the frame, can
# produce it.
status=$(awk '/^func writeStatusFrame\(/ {f=1} f {print "internal/ros/service.go:" NR ":"} f && /^}/ {f=0}' internal/ros/service.go)
status=${status:-no writeStatusFrame in internal/ros/service.go}
check "a frame header is written outside the egress batch (internal/ros/egress.go)" \
	"$(grep -rnE 'wire\.(AppendFrameHeader|AppendTaggedFrameHeader|PutFrameHeader)\(' internal/ros --include='*.go' | nontest | grep -v '^internal/ros/egress\.go:' | grep -vF "$status" || true)"

check "topic frames are written outside the egress batch (internal/ros/egress.go)" \
	"$(grep -rn '\.WriteTo(' internal/ros --include='*.go' | nontest | grep -v '^internal/ros/egress\.go:' | grep -vF "$status" || true)"

check "a second send-side batch type is back" \
	"$(grep -rnE 'type (sparseBatch|shardBatch|connBatch)\b' --include='*.go' . || true)"

# An shm link's peer reference is minted in one place, the write loop's
# last step before the batch (internal/ros/shm.go), once the item has
# left the queue: an item that never leaves it owns only its arena, so
# there is nothing to give back.
check "a peer reference is minted outside internal/ros/shm.go" \
	"$(grep -rn '\.Share(' internal/ros --include='*.go' | nontest | grep -v '^internal/ros/shm\.go:' || true)"

check "a share-undo path is back" \
	"$(grep -rn 'Unshare' --include='*.go' . || true)"

# The message manager owns its arena free lists (DESIGN §3.2): a
# sync.Pool is emptied by every collection, and refilling it allocated
# a fresh arena and per-P storage after each one.
check "a sync.Pool is back in the message manager (internal/core)" \
	"$(grep -rn 'sync\.Pool' internal/core --include='*.go' | nontest | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)"

# The graph plane keeps one registration log (DESIGN §3.9, §3.14): the
# client's replay, the primary's standby feed and the standby's replica
# all follow it, and only the log numbers its positions or frames them
# for a standby. A second table with its own sequence is how the three
# grew apart before.
check "a replication sequence or a repl_op/repl_snap message is built outside internal/ros/reglog.go" \
	"$(grep -rnE '(^|[^A-Za-z_])Seq:|\.Seq *=[^=]|Op: *"repl_(op|snap)"|[^=!]= *"repl_(op|snap)"' internal/ros --include='*.go' | nontest | grep -v '^internal/ros/reglog\.go:' || true)"

# One checksum site (DESIGN §3.8): every CRC-32C goes through
# internal/wire's Checksum/Checksum2/ChecksumUpdate, which pick the
# folding kernel where the CPU has it. A second import of hash/crc32
# would hash on the slow path and could drift from the wire's rule.
check "hash/crc32 is imported outside internal/wire" \
	"$(grep -rn '"hash/crc32"' --include='*.go' . | nontest | grep -v '^\./internal/wire/' || true)"

# When to shard is the publisher's call alone (DESIGN §3.10): every
# endpoint takes defaultShardPolicy, from its connection count. A shard
# policy built anywhere else is a knob growing back.
check "a shard policy is set outside internal/ros/shard.go" \
	"$(grep -rn 'shardPolicy{' --include='*.go' . | nontest | grep -v '^\./internal/ros/shard\.go:' || true)"

check "DialDrain spells its own header map" \
	"$(sed -n '/^func DialDrain(/,/^}/p' internal/ros/drain.go | grep -n 'map\[string\]string{' || true)"

[ "$fail" -eq 0 ] && echo "pipeline-check: ok"
exit "$fail"
