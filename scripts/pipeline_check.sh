#!/bin/sh
# pipeline_check.sh — structural guard for the connection pipeline
# (DESIGN §3.15). The seven hand-copied receive loops, the three ad-hoc
# header negotiations and the two legacy switches this replaced all
# passed their tests; what kept them apart was nothing but convention.
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

keys='hdr(Transports|PID|BootID|Transport|ShmPrefix|ShmPeer|ShmLeaseMS|ShmGen|Fields|Fieldwire|FieldwireReject)\b'
check "a negotiation header key is used outside internal/ros/capability.go" \
	"$(grep -rnE "$keys" internal/ros --include='*.go' | nontest | grep -v '^internal/ros/capability\.go:' || true)"

check "DialDrain spells its own header map" \
	"$(sed -n '/^func DialDrain(/,/^}/p' internal/ros/drain.go | grep -n 'map\[string\]string{' || true)"

[ "$fail" -eq 0 ] && echo "pipeline-check: ok"
exit "$fail"
