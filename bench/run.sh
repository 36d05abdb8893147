#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# Every build artifact (Go build cache, temp files, the binary) stays
# under .bench_build/ in the repository root, so the run reads and writes
# nothing outside the checkout besides the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/modcache"
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

# The bench module replaces repro with ../, so building outside a full
# checkout fails here and the script exits non-zero without a result.
(cd "$root/bench" && go build -o "$out/c2bench" .)
exec "$out/c2bench" "$@"
