#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it with the arguments given. Run from the root of a checkout; every
# file it writes (build cache, binary, inputs, trace) lands under .bench_build
# there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gotmp"
(
    cd "$here"
    # Keep the toolchain's cache, temporary files and counters in the checkout.
    GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
    XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= \
        go build -o "$build/glign-benchmark" .
)
exec "$build/glign-benchmark" -out "$build/out" "$@"
