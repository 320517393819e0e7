#!/usr/bin/env bash
# The one command: build the benchmark from source, then run it.
#
#   bash bench/run.sh --workload svc-small --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                # all four workloads, untraced then traced
#   bash bench/run.sh -selfcheck     # the untraced set twice, compared
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temp files and the binary under .bench_build/, span dumps
# under bench/out/. Both are listed in the root .gitignore.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The module needs nothing but this repository (bench/go.mod replaces
# repro with ../), so nothing is ever fetched.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
cd "$here"
go build -o "$build/rundown-bench" .
exec "$build/rundown-bench" "$@"
