#include "runtime/task_queue.h"

#include <algorithm>
#include <cassert>
#include <thread>

namespace tman {

namespace {

/// Monotonic slot handed to each thread on its first queue access; the
/// home shard is the slot modulo the shard count, so driver threads (and
/// concurrent producers) spread round-robin across shards.
uint32_t ThreadSlot() {
  static std::atomic<uint32_t> next_slot{0};
  thread_local uint32_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace

int TaskKindIndex(TaskKind kind) {
  int index = static_cast<int>(kind) - 1;  // TaskKind values start at 1
  assert(index >= 0 && index < kNumTaskKinds && "unknown TaskKind");
  return index;
}

std::string_view TaskKindName(TaskKind kind) {
  static constexpr std::string_view kNames[kNumTaskKinds] = {
      "process-token",            // kProcessToken
      "run-action",               // kRunAction
      "process-token-partition",  // kProcessTokenPartition
      "run-action-set",           // kRunActionSet
  };
  int index = static_cast<int>(kind) - 1;
  if (index < 0 || index >= kNumTaskKinds) return "?";
  return kNames[index];
}

TaskQueue::TaskQueue(uint32_t num_shards) {
  if (num_shards == 0) {
    uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    num_shards = std::clamp(hw, 4u, 32u);
  }
  shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

uint32_t TaskQueue::home_shard() const {
  return ThreadSlot() % static_cast<uint32_t>(shards_.size());
}

void TaskQueue::NoteQueued(size_t added) {
  uint64_t now =
      static_cast<uint64_t>(size_.fetch_add(added, std::memory_order_seq_cst) +
                            added);
  uint64_t seen = max_size_.load(std::memory_order_relaxed);
  while (now > seen &&
         !max_size_.compare_exchange_weak(seen, now,
                                          std::memory_order_relaxed)) {
  }
}

void TaskQueue::WakeSleepers(size_t pushed) {
  if (waiters_.load(std::memory_order_seq_cst) == 0) return;
  { std::lock_guard<std::mutex> lock(sleep_mutex_); }
  if (pushed == 1) {
    sleep_cv_.notify_one();
  } else {
    sleep_cv_.notify_all();
  }
}

void TaskQueue::Push(Task task) { PushToShard(home_shard(), std::move(task)); }

void TaskQueue::PushToShard(uint32_t shard_index, Task task) {
  Shard& shard = *shards_[shard_index % shards_.size()];
  TaskKind kind = task.kind;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.pushed.fetch_add(1, std::memory_order_relaxed);
    shard.per_kind[TaskKindIndex(kind)].fetch_add(1,
                                                  std::memory_order_relaxed);
    shard.tasks.push_back(std::move(task));
    shard.depth.store(shard.tasks.size(), std::memory_order_relaxed);
    NoteQueued(1);
  }
  WakeSleepers(1);
  Observe("push:" + std::string(TaskKindName(kind)));
}

void TaskQueue::PushBatch(std::vector<Task> tasks) {
  PushBatchToShard(home_shard(), std::move(tasks));
}

void TaskQueue::PushBatchToShard(uint32_t shard_index,
                                 std::vector<Task> tasks) {
  if (tasks.empty()) return;
  Shard& shard = *shards_[shard_index % shards_.size()];
  std::vector<TaskKind> kinds;
  kinds.reserve(tasks.size());
  for (const Task& t : tasks) kinds.push_back(t.kind);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.pushed.fetch_add(tasks.size(), std::memory_order_relaxed);
    for (TaskKind kind : kinds) {
      shard.per_kind[TaskKindIndex(kind)].fetch_add(
          1, std::memory_order_relaxed);
    }
    for (Task& t : tasks) shard.tasks.push_back(std::move(t));
    shard.depth.store(shard.tasks.size(), std::memory_order_relaxed);
    NoteQueued(kinds.size());
  }
  WakeSleepers(kinds.size());
  if (observer_) {
    for (TaskKind kind : kinds) {
      Observe("push:" + std::string(TaskKindName(kind)));
    }
  }
}

bool TaskQueue::TryPop(Task* task) {
  return TryPopFromShard(home_shard(), task);
}

bool TaskQueue::TryPopFromShard(uint32_t home, Task* task) {
  const uint32_t n = static_cast<uint32_t>(shards_.size());
  home %= n;
  if (paused_.load(std::memory_order_acquire)) return false;
  // Cheap emptiness probe before touching any lock.
  if (size_.load(std::memory_order_acquire) == 0) return false;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t index = (home + i) % n;
    Shard& shard = *shards_[index];
    bool stolen = i > 0;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (shard.tasks.empty()) continue;
      *task = std::move(shard.tasks.front());
      shard.tasks.pop_front();
      shard.depth.store(shard.tasks.size(), std::memory_order_relaxed);
      shard.popped.fetch_add(1, std::memory_order_relaxed);
      if (stolen) shard.steals.fetch_add(1, std::memory_order_relaxed);
    }
    // Keep size + in_flight conservatively overlapping: the task is
    // counted in flight before it stops counting as queued, so WaitIdle
    // can never observe a vanished task.
    in_flight_.fetch_add(1, std::memory_order_seq_cst);
    size_.fetch_sub(1, std::memory_order_seq_cst);
    Observe((stolen ? "steal:" : "pop:") +
            std::string(TaskKindName(task->kind)));
    return true;
  }
  return false;
}

size_t TaskQueue::PopBatch(std::vector<Task>* out, size_t max_tasks) {
  return PopBatchFromShard(home_shard(), out, max_tasks);
}

size_t TaskQueue::PopBatchFromShard(uint32_t home, std::vector<Task>* out,
                                    size_t max_tasks) {
  if (max_tasks == 0) return 0;
  const uint32_t n = static_cast<uint32_t>(shards_.size());
  home %= n;
  if (paused_.load(std::memory_order_acquire)) return 0;
  // Cheap emptiness probe before touching any lock.
  if (size_.load(std::memory_order_acquire) == 0) return 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t index = (home + i) % n;
    Shard& shard = *shards_[index];
    bool stolen = i > 0;
    size_t taken = 0;
    const size_t first = out->size();
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      size_t available = shard.tasks.size();
      if (available == 0) continue;
      size_t take = std::min(available, max_tasks);
      if (stolen) {
        // Steal-aware fallback: leave the owner at least half its queue.
        take = std::min(take, std::max<size_t>(1, available / 2));
      }
      for (size_t t = 0; t < take; ++t) {
        out->push_back(std::move(shard.tasks.front()));
        shard.tasks.pop_front();
      }
      shard.depth.store(shard.tasks.size(), std::memory_order_relaxed);
      shard.popped.fetch_add(take, std::memory_order_relaxed);
      if (stolen) shard.steals.fetch_add(take, std::memory_order_relaxed);
      shard.batch_pops.fetch_add(1, std::memory_order_relaxed);
      shard.batch_pop_tasks.fetch_add(take, std::memory_order_relaxed);
      taken = take;
    }
    // Same conservative overlap as TryPop: everything taken is counted in
    // flight before it stops counting as queued, so WaitIdle can never
    // observe a vanished task.
    in_flight_.fetch_add(taken, std::memory_order_seq_cst);
    size_.fetch_sub(taken, std::memory_order_seq_cst);
    if (observer_) {
      for (size_t t = 0; t < taken; ++t) {
        Observe((stolen ? "steal:" : "pop:") +
                std::string(TaskKindName((*out)[first + t].kind)));
      }
    }
    return taken;
  }
  return 0;
}

bool TaskQueue::WaitPop(Task* task, std::chrono::milliseconds timeout) {
  const uint32_t home = home_shard();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (TryPopFromShard(home, task)) return true;
    if (closed_.load(std::memory_order_acquire)) return false;
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    bool signaled = sleep_cv_.wait_until(lock, deadline, [this] {
      return (!paused_.load(std::memory_order_acquire) &&
              size_.load(std::memory_order_seq_cst) > 0) ||
             closed_.load(std::memory_order_acquire);
    });
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    lock.unlock();
    if (!signaled) {
      // Timed out: one final non-blocking attempt (work may have landed
      // exactly at the deadline).
      return TryPopFromShard(home, task);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return TryPopFromShard(home, task);
    }
    // Woken: loop and race the other drivers for the task.
  }
}

void TaskQueue::MarkDone() {
  // Tolerates a spurious MarkDone (no matching pop) like the previous
  // implementation did: the counter never underflows.
  size_t before = in_flight_.load(std::memory_order_seq_cst);
  do {
    if (before == 0) return;
  } while (!in_flight_.compare_exchange_weak(before, before - 1,
                                             std::memory_order_seq_cst));
  if (before == 1 && size_.load(std::memory_order_seq_cst) == 0) {
    NotifyIfIdle();
  }
  Observe("done");
}

void TaskQueue::NotifyIfIdle() {
  { std::lock_guard<std::mutex> lock(idle_mutex_); }
  idle_cv_.notify_all();
}

void TaskQueue::WaitIdle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [this] {
    return (size_.load(std::memory_order_seq_cst) == 0 &&
            in_flight_.load(std::memory_order_seq_cst) == 0) ||
           closed_.load(std::memory_order_acquire);
  });
}

void TaskQueue::Pause() {
  paused_.store(true, std::memory_order_release);
  Observe("pause");
}

void TaskQueue::Resume() {
  if (!paused_.exchange(false, std::memory_order_acq_rel)) return;
  // Same lost-wakeup guard as WakeSleepers: a driver may have evaluated
  // the paused predicate but not yet blocked.
  { std::lock_guard<std::mutex> lock(sleep_mutex_); }
  sleep_cv_.notify_all();
  Observe("resume");
}

void TaskQueue::Close() {
  closed_.store(true, std::memory_order_release);
  { std::lock_guard<std::mutex> lock(sleep_mutex_); }
  sleep_cv_.notify_all();
  { std::lock_guard<std::mutex> lock(idle_mutex_); }
  idle_cv_.notify_all();
  Observe("close");
}

TaskQueueStats TaskQueue::stats() const {
  // Lock-free aggregation: each counter is one atomic load, so a stats
  // poll never blocks a pushing or popping driver thread.
  TaskQueueStats stats;
  for (const auto& shard : shards_) {
    stats.pushed += shard->pushed.load(std::memory_order_relaxed);
    stats.popped += shard->popped.load(std::memory_order_relaxed);
    stats.steals += shard->steals.load(std::memory_order_relaxed);
    stats.batch_pops += shard->batch_pops.load(std::memory_order_relaxed);
    stats.batch_pop_tasks +=
        shard->batch_pop_tasks.load(std::memory_order_relaxed);
    for (int k = 0; k < kNumTaskKinds; ++k) {
      stats.per_kind[k] += shard->per_kind[k].load(std::memory_order_relaxed);
    }
  }
  stats.max_size = max_size_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<TaskQueueShardStats> TaskQueue::shard_stats() const {
  std::vector<TaskQueueShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    TaskQueueShardStats s;
    s.depth = shard->depth.load(std::memory_order_relaxed);
    s.pushed = shard->pushed.load(std::memory_order_relaxed);
    s.popped = shard->popped.load(std::memory_order_relaxed);
    s.steals = shard->steals.load(std::memory_order_relaxed);
    s.batch_pops = shard->batch_pops.load(std::memory_order_relaxed);
    s.batch_pop_tasks =
        shard->batch_pop_tasks.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

}  // namespace tman
