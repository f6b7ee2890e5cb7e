#!/usr/bin/env bash
# Runs the scaling and evaluation benchmark suites and writes
# machine-readable results to BENCH_scaling.json and BENCH_eval.json at
# the repository root (google-benchmark JSON, one entry per
# benchmark/arg/thread-count combination).
#
# Usage:
#   scripts/run_bench.sh            # bench_scaling -> BENCH_scaling.json
#                                   # bench_eval    -> BENCH_eval.json
#   scripts/run_bench.sh --smoke    # fast verified rounds, no JSON (CI)
#   scripts/run_bench.sh --all      # also re-run every other bench_* binary
#
# The driver-scaling numbers (BM_DriverScalingTokens) model blocking
# downstream delivery per fired event, so they demonstrate driver-count
# scaling even on a single-CPU host; the ->Threads(N) microbenchmarks
# additionally need real cores to show contention relief.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"

if ! [ -x build/bench/bench_scaling ] || ! [ -x build/bench/bench_eval ] ||
   ! [ -x build/bench/bench_cluster ] || ! [ -x build/bench/bench_adapt ]; then
  cmake -B build -S . >/dev/null
  cmake --build build -j --target bench_scaling --target bench_eval \
    --target bench_cluster --target bench_adapt
fi

if [ "$MODE" = "--smoke" ]; then
  ./build/bench/bench_eval --smoke
  ./build/bench/bench_cluster --smoke
  ./build/bench/bench_adapt --smoke
  exec ./build/bench/bench_scaling --smoke
fi

./build/bench/bench_scaling \
  --benchmark_format=json \
  --benchmark_out=BENCH_scaling.json \
  --benchmark_out_format=json

echo "Wrote BENCH_scaling.json"

./build/bench/bench_eval \
  --benchmark_format=json \
  --benchmark_out=BENCH_eval.json \
  --benchmark_out_format=json

echo "Wrote BENCH_eval.json"

# The batched lanes in isolation: columnar batch widths 8/64/256 through
# the compiled evaluator (bench_eval) and the token pipeline / task queue
# (bench_scaling). Kept as a separate artifact so the scalar-vs-batched
# comparison survives reruns of the main suites.
./build/bench/bench_eval \
  --benchmark_filter='Batched' \
  --benchmark_format=json \
  --benchmark_out=BENCH_batch.json \
  --benchmark_out_format=json

echo "Wrote BENCH_batch.json"

./build/bench/bench_cluster \
  --benchmark_format=json \
  --benchmark_out=BENCH_cluster.json \
  --benchmark_out_format=json

echo "Wrote BENCH_cluster.json"

./build/bench/bench_adapt \
  --benchmark_format=json \
  --benchmark_out=BENCH_adapt.json \
  --benchmark_out_format=json

echo "Wrote BENCH_adapt.json"

if [ "$MODE" = "--all" ]; then
  cmake --build build -j >/dev/null
  # Only the benchmarks bench/CMakeLists.txt defines, not stale binaries.
  for name in $(sed -n 's/^tman_bench(\(bench_[a-z0-9_]*\))$/\1/p' \
                  bench/CMakeLists.txt); do
    [ "$name" = "bench_scaling" ] && continue
    [ "$name" = "bench_eval" ] && continue
    [ "$name" = "bench_cluster" ] && continue
    [ "$name" = "bench_adapt" ] && continue
    echo "===== $name ====="
    "build/bench/$name"
  done
fi
