#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout
# and runs it with the arguments given. Everything the Go toolchain
# writes (build cache, temporary files) stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
