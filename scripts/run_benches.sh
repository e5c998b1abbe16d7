#!/usr/bin/env bash
# Perf-regression harness: builds the optimized tree and runs the
# simulation-core bench end to end, leaving BENCH_simcore.json in the repo
# root. The JSON embeds the pre-overhaul baseline, so `speedup_vs_baseline`
# is the number to watch — it must not drift back toward 1.0.
#
#   scripts/run_benches.sh               # full sweep (N=512,1024,2048)
#   scripts/run_benches.sh --smoke       # deterministic assertions only, fast
#   scripts/run_benches.sh --nodes=256   # smaller probe for quick iteration
#
# BENCH_simcore.json is an array of rows, one per N, each with the run's
# fidelity verdict, host peak RSS and memory-layout profile counters; the
# N=512 row embeds the pre-overhaul baseline and speedup.
#
# Timing runs want a quiet machine and jobs=1 (the probe measures the
# single-run inner loop the paper's Figure 2 executes thousands of times);
# smoke mode has no wall-clock thresholds and is safe anywhere, so CI uses
# `--smoke` (see scripts/check_thread_safety.sh).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" --target perf_simcore -j"$(nproc)" >/dev/null

if [[ "${1:-}" == "--smoke" ]]; then
  "$BUILD_DIR/bench/perf_simcore" --smoke
  exit 0
fi

if [[ "$*" == *--nodes=* ]]; then
  "$BUILD_DIR/bench/perf_simcore" --out=BENCH_simcore.json "$@"
else
  "$BUILD_DIR/bench/perf_simcore" --out=BENCH_simcore.json --nodes=512,1024,2048 "$@"
fi
echo
echo "BENCH_simcore.json:"
cat BENCH_simcore.json
