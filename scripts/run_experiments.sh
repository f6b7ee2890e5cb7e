#!/usr/bin/env bash
# Builds the project, runs the full test suite, and regenerates every
# experiment in EXPERIMENTS.md, leaving raw logs in test_output.txt and
# bench_output.txt at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Same configure line as the tier-1 build, so both share build/.
cmake -B build -S .
cmake --build build -j "$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

# Only the benchmarks bench/CMakeLists.txt defines: a binary left in a
# reused build/ by a deleted target must not run.
{
  for name in $(sed -n 's/^tman_bench(\(bench_[a-z0-9_]*\))$/\1/p' \
                  bench/CMakeLists.txt); do
    echo "===== $name ====="
    "build/bench/$name"
  done
} 2>&1 | tee bench_output.txt

echo "Done. See test_output.txt and bench_output.txt."
