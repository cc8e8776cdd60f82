#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-lots --seed 1 --seconds 10 --trace 0
#
# The Go build cache and temporary files stay under .bench_build, and
# the toolchain never reaches for the network.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
