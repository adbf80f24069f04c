#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark driver from the
# checkout it is run in and hands it the arguments; the driver builds
# cmd/serve (and, for --trace 1, bench/layers) itself. Every build product,
# the Go build cache included, stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOTELEMETRY=off
go -C "$root/bench" build -o "$build/bin/e2e" ./e2e
exec "$build/bin/e2e" "$@"
