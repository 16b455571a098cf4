#!/usr/bin/env bash
# run.sh — the command BENCHMARK.json names. Builds the benchmark from source
# into .bench_build/ inside the checkout (binary and Go build cache both, so
# nothing is written outside it) and runs it with the driver's arguments:
#
#   bash bench/run.sh --workload cold_unique --seed 1 --seconds 10 --trace 0
#
# The build needs the repository's go.mod and internal/ packages; in a
# directory without them it fails here, before anything is measured.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
