#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The Go build cache, temporary files and the binary stay under
# .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
# One GOMAXPROCS for every run, so parent and change are measured alike.
export GOMAXPROCS="${GOMAXPROCS:-2}"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
