#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds the program from source and
# runs it from this directory with the arguments given. The binary and Go's
# build cache go to .bench_build/ at the root of the checkout, because a run
# may write nowhere else.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
go build -C "$here" -o "$build/bench" .
cd "$here"
exec "$build/bench" "$@"
