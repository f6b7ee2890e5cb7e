// Small helpers shared by the deployed-path benchmark's files.

#ifndef TMAN_BENCH_E2E_COMMON_H_
#define TMAN_BENCH_E2E_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace tman::e2e {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 finalizer: the fingerprint hash of one expected firing.
/// Sums of Mix values form an order-independent multiset fingerprint, so
/// the firings of a round can be checked without recording them.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Setup and harness failures abort the run: the benchmark must not print
/// a result for a deployment it could not build.
inline void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckResult(Result<T> r, const char* what) {
  Check(r.status(), what);
  return std::move(*r);
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty set.
inline double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v->size()));
  return (*v)[std::min(rank, v->size() - 1)];
}

}  // namespace tman::e2e

#endif  // TMAN_BENCH_E2E_COMMON_H_
