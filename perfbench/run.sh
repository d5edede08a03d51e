#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload median-sponge --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# benchmark's scratch files all stay under .bench_build/ in the working
# directory. perfbench is a module of its own that builds against the
# repository through a replace directive, so it fails to build outside a
# full checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
