// The traced run's per-layer measurements. Everything here sits outside
// the program: counter snapshots diffed across the timed window, a
// sampler of the WAL backlog, and replays of each layer's public API on
// the run's recorded inputs after the final drain.

#ifndef TMAN_BENCH_E2E_TRACE_H_
#define TMAN_BENCH_E2E_TRACE_H_

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench_e2e/harness.h"

namespace tman::e2e {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The program's own counters at one instant.
struct Counters {
  TriggerManagerStats tman;
  TaskQueueStats queue;
  uint64_t interpreter_calls = 0;
  RemoteClientStats clients;  // summed over the connections
};
Counters ReadCounters(Deployment* d);

/// Samples the backlogs every millisecond: task-queue depth and durable
/// tokens not yet processed (WalPendingTokens).
class BacklogSampler {
 public:
  explicit BacklogSampler(TriggerManager* tman);
  ~BacklogSampler();
  BacklogSampler(const BacklogSampler&) = delete;
  BacklogSampler& operator=(const BacklogSampler&) = delete;

  /// Stops sampling (idempotent).
  void Stop();

  uint64_t queue_depth_max() const {
    return queue_max_.load(std::memory_order_relaxed);
  }
  uint64_t wal_pending_max() const {
    return pending_max_.load(std::memory_order_relaxed);
  }

 private:
  TriggerManager* tman_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> queue_max_{0};
  std::atomic<uint64_t> pending_max_{0};
  std::thread thread_;  // last: uses the members above
};

/// Mean serialized size of the round's tokens.
double MeanTokenBytes(const Round& round);

/// Per-layer metrics from counter deltas over a window of `tokens`
/// tokens, the generator's own samples, and the sampled backlogs.
void AppendCounterMetrics(const Counters& before, const Counters& after,
                          uint64_t tokens,
                          const std::vector<const LoopStats*>& loops,
                          const BacklogSampler& backlog, Metrics* out);

/// Replays recorded inputs through each layer's public API. Runs after
/// the final drain; it disturbs the deployment (cache contents, audit
/// rows), so nothing is measured end to end afterwards.
void AppendReplayMetrics(Deployment* d, const LoadGen& gen,
                         const Counters& before, const Counters& after,
                         Metrics* out);

}  // namespace tman::e2e

#endif  // TMAN_BENCH_E2E_TRACE_H_
