#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (compiler cache
# included, so nothing is written outside the checkout) and runs it with
# the given arguments. Run from the root of the checkout:
#   bash benchmark/run.sh --workload tcp_4k_lockstep --seed 1 --seconds 28 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPROXY=off GOTOOLCHAIN=local
go -C benchmark build -o "$build/rossf-benchmark" . >&2
exec "$build/rossf-benchmark" "$@"
