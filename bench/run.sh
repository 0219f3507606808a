#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build leaves behind — the binary, Go's build cache and its
# temp files — stays under .bench_build/ in the checkout, so a run reads and
# writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/whopay-bench" ./bench
exec "$build/whopay-bench" "$@"
