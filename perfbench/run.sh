#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it:
#
#   bash perfbench/run.sh --workload sim-http --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, temporary files, telemetry counters) lands under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/home/gomod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/home/go"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
export PPROF_TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
