# Convenience targets for the rossf reproduction.

GO ?= go

.PHONY: all build test race bench bench-ipc bench-fanout bench-netfield bench-ingress bench-failover chaos chaos-master chaos-failover fuzz generate experiments examples stats-smoke pipeline-check alloc-floor shm-floor clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/ ./internal/ros/ ./internal/shm/ ./internal/bench/

# Fault-injection matrix (see TESTING.md) under the race detector,
# plus a fuzz smoke over the wire framing and IDL parsers.
chaos: fuzz
	$(GO) test -race ./internal/chaostest/... ./internal/netsim/

# Graph-plane resilience (DESIGN §3.9): master kill/restart under live
# traffic and a node<->master netsim partition, plus the masternet
# replay/liveness unit tier — all under the race detector.
chaos-master:
	$(GO) test -race -count=1 -run 'TestMaster' ./internal/chaostest/
	$(GO) test -race -count=1 -run 'TestRemoteMaster|TestMasterServer|TestDialMaster' ./internal/ros/

# Warm-standby failover (DESIGN §3.14): SIGKILL the primary under live
# registration + data traffic, standby promotes within the lease, zero
# registrations and zero messages lost, stale-epoch zombie fenced —
# plus the replication/promotion unit tier — all under the race
# detector.
chaos-failover:
	$(GO) test -race -count=1 -run 'TestMasterFailover' ./internal/chaostest/
	$(GO) test -race -count=1 -run 'TestStandby|TestStaleEpoch|TestPromoted|TestClientSkips|TestReplayConvergenceAcrossPromotion|TestMultiAddressDialShape|TestUnadopted' ./internal/ros/

# Short fuzz passes: long enough to catch regressions in the frame
# scanner, the CRC-32C kernel and the parsers, short enough for CI. The
# last one drives the recycled-record life-cycle model (TESTING.md) from
# generated seeds; `make race` runs its seed corpus under the race
# detector.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReadFrame -fuzztime=10s ./internal/wire/
	$(GO) test -run=NONE -fuzz=FuzzChecksumMatchesStdlib -fuzztime=10s ./internal/wire/
	$(GO) test -run=NONE -fuzz=FuzzParse$$ -fuzztime=10s ./internal/msg/
	$(GO) test -run=NONE -fuzz=FuzzParseSrv -fuzztime=10s ./internal/msg/
	$(GO) test -run=NONE -fuzz=FuzzSparseDecoder -fuzztime=10s ./internal/fieldwire/
	$(GO) test -run=NONE -fuzz=FuzzRecycledRecordSafety -fuzztime=10s ./internal/core/

bench:
	$(GO) test -bench=. -benchmem ./...

# Intra-machine transport matrix (inproc / shm / tcp) -> BENCH_ipc.json,
# 2000 measured messages in every cell (a minute or two). The shm rows
# need a mappable backing directory (normally /dev/shm); the runner
# skips them where the platform lacks one, and skips — with the reason
# in the JSON — the TCP cell of a size no plain TCP link carries
# (above the 64 MiB frame cap).
bench-ipc:
	$(GO) run ./cmd/rossf-bench ipc -messages 2000 -out BENCH_ipc.json

# Streaming fan-out matrix (1..10000 subscribers x 4KiB/64KiB): what a
# publisher with that many TCP subscribers gets — write loops below the
# shard threshold, the shard pool past it -> BENCH_fanout.json. (A 1 MiB
# column: `rossf-bench fanout -size 1048576 -maxsubs 8`.)
# The 10000-subscriber cells hold ~20k connection ends; the runner
# raises RLIMIT_NOFILE when it can, pushes the drain readers into
# worker subprocesses (`rossf-bench fanout-drain`) when one process
# cannot hold both ends, and records any still-unrunnable cell as
# skipped in the JSON.
bench-fanout:
	$(GO) run ./cmd/rossf-bench fanout -out BENCH_fanout.json

# Receive-side matrix: batched ingress drain (one Read wakeup draining
# many frames) through the receive pump -> BENCH_ingress.json.
bench-ingress:
	$(GO) run ./cmd/rossf-bench ingress -out BENCH_ingress.json

# Warm-standby failover at scale: a 100k-registration graph loaded
# through a replicated master pair, then the primary is killed —
# promotion latency, full-graph recovery time, and a completeness audit
# -> BENCH_failover.json.
bench-failover:
	$(GO) run ./cmd/rossf-bench failover -out BENCH_failover.json

# Field-wire partial transmission over netsim 10 GbE: bytes on the wire
# and latency for a header-only sensor_msgs/Image consumer, masked
# subscription vs the full-frame baseline -> BENCH_netfield.json.
bench-netfield:
	$(GO) run ./cmd/rossf-bench netfield -out BENCH_netfield.json

# Regenerate msgs/ from the IDL tree (run after editing msgs/idl).
generate:
	$(GO) run ./cmd/sfmgen -idl msgs/idl -out msgs -capacities msgs/idl/capacities.txt
	$(GO) build ./...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/rossf-bench all

# End-to-end observability check: rosmaster + rospub -metrics +
# rostopic stats, then curl the /metrics endpoint and validate the JSON
# schema (see scripts/stats_smoke.sh).
stats-smoke:
	sh scripts/stats_smoke.sh

# Structural guard for the connection pipeline (DESIGN §3.15): one
# receive pump, one negotiation site, no legacy switches.
pipeline-check:
	sh scripts/pipeline_check.sh

# Allocation floor (DESIGN §3.2): the gated benchmark workloads must
# stay within their heap-objects-per-message budget with no failed
# delivery. A count, not a timing, so it gates on any runner.
alloc-floor:
	bash scripts/alloc_floor.sh

# First timing floor (DESIGN §3.7): shm_4k_lockstep's latency_p50_us
# must not exceed tcp_4k_lockstep's, measured back to back. A ratio, so
# it gates on any runner; prints NOT VERIFIED where /dev/shm is absent.
shm-floor:
	bash scripts/shm_floor.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/imagepipeline
	$(GO) run ./examples/servicedemo
	$(GO) run ./examples/pingpong -messages 15
	$(GO) run ./examples/slamdemo -frames 15

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
