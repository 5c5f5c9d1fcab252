#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Everything the Go toolchain writes (build cache, temporary
# files, its telemetry counters, the binary) stays under .bench_build/ in the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"
go build -C bench -o "$build/autoscale-bench" .
exec "$build/autoscale-bench" "$@"
