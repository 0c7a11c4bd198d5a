#!/bin/sh
# Bench-regression gate: runs the short ^BenchmarkGate suite and compares it
# against the committed BENCH_7.json snapshot (fails on >25% slowdown, on a
# pushdown or proc-compile speedup below 1.5x, on a rangeseek speedup below
# 2x, on a plan-cache warm hit rate below 99% or any allocation
# on the warm lookup path).
#
# Accept current numbers as the new baseline with:
#
#	scripts/bench_regress.sh -update
set -eu
cd "$(dirname "$0")/.."
exec go run ./scripts/benchgate "$@"
