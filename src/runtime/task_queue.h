#ifndef TRIGGERMAN_RUNTIME_TASK_QUEUE_H_
#define TRIGGERMAN_RUNTIME_TASK_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace tman {

/// The four task types of §6. The payload is a closure built by the
/// trigger manager; the kind is kept explicit so statistics and tests can
/// observe the mix.
enum class TaskKind {
  kProcessToken = 1,          // one token through the predicate index
  kRunAction = 2,             // one rule action
  kProcessTokenPartition = 3, // one token against a condition partition
  kRunActionSet = 4,          // a set of rule actions fired by one token
};

inline constexpr int kNumTaskKinds = 4;

/// Dense 0-based index for per-kind counters (TaskKind values start at 1;
/// asserts on out-of-range kinds so a future fifth kind cannot silently
/// index past the counter array).
int TaskKindIndex(TaskKind kind);

std::string_view TaskKindName(TaskKind kind);

struct Task {
  TaskKind kind = TaskKind::kProcessToken;
  std::function<Status()> work;
};

/// Counters for the queue. `max_size` is the high-water mark of tasks
/// queued across all shards (not yet popped) — the depth signal the
/// remote-ingestion credit window is judged against (see ipc/server.h).
/// `per_kind` is indexed by TaskKindIndex (0-based). `steals` counts pops
/// that drained a shard other than the popping thread's home shard.
struct TaskQueueStats {
  uint64_t pushed = 0;
  uint64_t popped = 0;
  uint64_t steals = 0;
  uint64_t max_size = 0;
  uint64_t per_kind[kNumTaskKinds] = {0, 0, 0, 0};
  uint64_t batch_pops = 0;       // PopBatch calls that returned >= 1 task
  uint64_t batch_pop_tasks = 0;  // tasks delivered through PopBatch
};

/// Per-shard snapshot for introspection (console `stats`, tests).
struct TaskQueueShardStats {
  size_t depth = 0;       // currently queued in this shard
  uint64_t pushed = 0;
  uint64_t popped = 0;    // pops that drained this shard
  uint64_t steals = 0;    // pops by threads homed elsewhere
  uint64_t batch_pops = 0;       // non-empty PopBatch drains of this shard
  uint64_t batch_pop_tasks = 0;  // tasks those drains delivered
};

/// The shared task queue of §6: "a task queue kept in shared memory to
/// store incoming or internally generated work". Multiple driver threads
/// pop concurrently (the paper uses driver processes because Informix
/// forbids spawning threads inside UDRs; the control structure is the
/// same).
///
/// Scaling: the queue is sharded. Each thread is assigned a home shard
/// (round-robin at first use); Push appends to the home shard under that
/// shard's mutex only, and TryPop drains the home shard first, then
/// steals from the others in a fixed scan order. PushBatch amortizes one
/// lock acquisition and one wakeup over a whole batch of tasks — the
/// remote-ingestion path turns a network batch into a single PushBatch.
/// Aggregate size / in-flight / high-water counters are lock-free
/// atomics, so the ipc credit window reads depth without touching any
/// shard lock.
class TaskQueue {
 public:
  /// `num_shards` = 0 picks a default sized to the hardware (clamped to
  /// [4, 32] so sharding is exercised even on small CI machines).
  explicit TaskQueue(uint32_t num_shards = 0);

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Enqueues a task on the calling thread's home shard; wakes one
  /// waiting driver.
  void Push(Task task);

  /// Enqueues a whole batch under one shard lock with one wakeup pass.
  void PushBatch(std::vector<Task> tasks);

  /// Explicit-shard variants: the deterministic scheduler (single-
  /// threaded) uses these to model producers/drivers homed on distinct
  /// shards, so steal paths replay as a pure function of the seed.
  void PushToShard(uint32_t shard, Task task);
  void PushBatchToShard(uint32_t shard, std::vector<Task> tasks);

  /// Non-blocking pop: home shard first, then steal. Returns false if
  /// every shard is empty.
  bool TryPop(Task* task);
  bool TryPopFromShard(uint32_t home_shard, Task* task);

  /// Batched pop: drains up to `max_tasks` from the front of one shard
  /// under a single lock acquisition — the consumer-side mirror of
  /// PushBatch. The home shard is drained first; when it is empty the
  /// scan steals from the first non-empty victim, but takes at most half
  /// of that shard's queue (min 1) so a thief never strips an owner bare.
  /// Appends to `*out` and returns the number of tasks delivered (0 when
  /// every shard is empty or the queue is paused).
  size_t PopBatch(std::vector<Task>* out, size_t max_tasks);
  size_t PopBatchFromShard(uint32_t home_shard, std::vector<Task>* out,
                           size_t max_tasks);

  /// Blocking pop with timeout (the driver period T: a driver sleeps at
  /// most this long when the queue is empty, waking early on new work).
  bool WaitPop(Task* task, std::chrono::milliseconds timeout);

  /// Closes the queue: subsequent WaitPop calls return false once empty.
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Pauses dispatch: pops return nothing (WaitPop sleeps) while tasks
  /// keep accumulating, until Resume(). Tasks already popped finish
  /// normally. The cluster node holds processing through this gate while
  /// a router's rejoin fences may still invalidate staged tokens, so the
  /// hold binds every driver — not just callers that poll a flag. Close()
  /// overrides a pause (drivers must still exit).
  void Pause();
  void Resume();
  bool paused() const { return paused_.load(std::memory_order_acquire); }

  /// Executors call this after finishing a popped task; WaitIdle uses the
  /// popped-but-unfinished count to define quiescence.
  void MarkDone();

  /// Blocks until no task is queued or executing (or the queue closes).
  void WaitIdle();

  /// Total queued across shards (lock-free; the ipc credit bound reads
  /// this on every grant).
  size_t size() const { return size_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }
  size_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// The shard Push/TryPop would use from the calling thread.
  uint32_t home_shard() const;

  TaskQueueStats stats() const;
  std::vector<TaskQueueShardStats> shard_stats() const;

  /// Test seam for the deterministic harness: when set, each completed
  /// transition reports one short event ("push:<kind>", "pop:<kind>",
  /// "steal:<kind>", "done", "close") so schedule tests can record
  /// queue-level traces. The observer runs outside the shard mutex after
  /// the transition; install it before any concurrent use (events from
  /// racing threads would otherwise interleave nondeterministically — the
  /// deterministic scheduler is single-threaded, so its traces are
  /// exact).
  void set_observer(std::function<void(std::string_view)> observer) {
    observer_ = std::move(observer);
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::deque<Task> tasks;
    // Written (relaxed) under the shard mutex alongside the deque, but
    // read lock-free by stats()/shard_stats(): a stats poll (console,
    // adaptive re-optimizer round) never contends with the hot push/pop
    // path, and every value is one whole 64-bit atomic load — no torn
    // reads for tsan to flag.
    std::atomic<size_t> depth{0};
    std::atomic<uint64_t> pushed{0};
    std::atomic<uint64_t> popped{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> batch_pops{0};
    std::atomic<uint64_t> batch_pop_tasks{0};
    std::atomic<uint64_t> per_kind[kNumTaskKinds] = {{0}, {0}, {0}, {0}};
  };

  void Observe(std::string_view event) {
    if (observer_) observer_(event);
  }

  /// Records the post-push total and maintains the global high-water.
  /// Called under the pushing shard's mutex: a pop of the new tasks must
  /// take that mutex first, so it can never subtract before this adds
  /// (which would wrap size_ below zero).
  void NoteQueued(size_t added);

  /// Wakes sleepers after a push. The empty lock/unlock of sleep_mutex_
  /// before notifying closes the window where a waiter has evaluated its
  /// predicate (queue empty) but not yet blocked — without it the notify
  /// could fire before the wait starts and be lost.
  void WakeSleepers(size_t pushed);

  /// Notifies WaitIdle waiters when the queue may have become idle.
  void NotifyIfIdle();

  std::function<void(std::string_view)> observer_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<size_t> size_{0};
  std::atomic<size_t> in_flight_{0};
  std::atomic<uint64_t> max_size_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> paused_{false};

  // Sleep/wake machinery for WaitPop (used only when drivers run dry).
  mutable std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<uint32_t> waiters_{0};

  // WaitIdle machinery.
  mutable std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
};

}  // namespace tman

#endif  // TRIGGERMAN_RUNTIME_TASK_QUEUE_H_
