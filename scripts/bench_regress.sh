#!/bin/sh
# Bench-regression gate: runs the short ^BenchmarkGate suite and compares it
# against the committed BENCH_7.json snapshot (fails on >25% slowdown, on a
# batch, pushdown, or proc-compile speedup below 1.5x, on a rangeseek
# speedup below 2x, on a
# plan-cache warm hit rate below 99% or any allocation on the warm lookup
# path, and — when both the snapshot and the host have >= 4 CPUs — on a
# parallel-aggregation speedup below 2x; smaller hosts print a loud DISARMED
# warning, or fail with -strict).
#
# Accept current numbers as the new baseline with:
#
#	scripts/bench_regress.sh -update
#
# (-update on a <4-CPU host records the parallel cells unarmed; a >=4-CPU
# compare run then fails until the baseline is re-recorded there.)
set -eu
cd "$(dirname "$0")/.."
exec go run ./scripts/benchgate "$@"
