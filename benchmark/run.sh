#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout (Go build cache and binary under .bench_build/, nothing written
# outside the tree) and runs it from the checkout root with the given flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Everything the toolchain writes — build cache, work dirs, its own config and
# telemetry counters — goes under .bench_build/, and nothing is downloaded.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/bandslim-benchmark" .)
cd "$root"
exec "$build/bandslim-benchmark" "$@"
