#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"): build the harness
# from this checkout's source, then hand it the arguments.
#
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ and
# benchmark/out/ of the checkout: the go build cache and GOPATH are pointed
# there, and the harness does the same for the aggifyd it builds and for
# every scratch file.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/harness" .)
cd "$root"
exec "$build/harness" "$@"
