#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/driver.h"
#include "runtime/task_queue.h"

namespace tman {
namespace {

Task Work(TaskKind kind, std::function<Status()> fn) {
  Task t;
  t.kind = kind;
  t.work = std::move(fn);
  return t;
}

TEST(TaskQueueTest, PushPopFifo) {
  TaskQueue q;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    q.Push(Work(TaskKind::kProcessToken, [&order, i] {
      order.push_back(i);
      return Status::OK();
    }));
  }
  EXPECT_EQ(q.size(), 3u);
  Task t;
  while (q.TryPop(&t)) {
    ASSERT_TRUE(t.work().ok());
    q.MarkDone();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(TaskQueueTest, StatsPerKind) {
  TaskQueue q;
  q.Push(Work(TaskKind::kProcessToken, [] { return Status::OK(); }));
  q.Push(Work(TaskKind::kRunAction, [] { return Status::OK(); }));
  q.Push(Work(TaskKind::kRunAction, [] { return Status::OK(); }));
  auto st = q.stats();
  EXPECT_EQ(st.pushed, 3u);
  EXPECT_EQ(st.per_kind[TaskKindIndex(TaskKind::kProcessToken)], 1u);
  EXPECT_EQ(st.per_kind[TaskKindIndex(TaskKind::kRunAction)], 2u);
}

TEST(TaskQueueTest, TaskKindIndexCoversEveryKind) {
  // TaskKind values start at 1; the 0-based remap must place all four
  // kinds inside per_kind[kNumTaskKinds] with no dead slot 0.
  EXPECT_EQ(TaskKindIndex(TaskKind::kProcessToken), 0);
  EXPECT_EQ(TaskKindIndex(TaskKind::kRunAction), 1);
  EXPECT_EQ(TaskKindIndex(TaskKind::kProcessTokenPartition), 2);
  EXPECT_EQ(TaskKindIndex(TaskKind::kRunActionSet), 3);
  EXPECT_LT(TaskKindIndex(TaskKind::kRunActionSet), kNumTaskKinds);
}

TEST(TaskQueueTest, PushBatchAmortizesAndPreservesAll) {
  TaskQueue q;
  std::atomic<int> done{0};
  std::vector<Task> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(Work(TaskKind::kProcessToken, [&done] {
      ++done;
      return Status::OK();
    }));
  }
  q.PushBatch(std::move(batch));
  EXPECT_EQ(q.size(), 64u);
  EXPECT_EQ(q.stats().pushed, 64u);
  Task t;
  while (q.TryPop(&t)) {
    ASSERT_TRUE(t.work().ok());
    q.MarkDone();
  }
  EXPECT_EQ(done.load(), 64);
  EXPECT_TRUE(q.empty());
}

TEST(TaskQueueTest, PushBatchEmptyIsNoOp) {
  TaskQueue q;
  q.PushBatch({});
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().pushed, 0u);
}

TEST(TaskQueueTest, PushBatchWakesWaiters) {
  TaskQueue q;
  std::atomic<int> got{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      Task t;
      if (q.WaitPop(&t, std::chrono::seconds(5))) {
        ++got;
        q.MarkDone();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<Task> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(Work(TaskKind::kProcessToken, [] { return Status::OK(); }));
  }
  q.PushBatch(std::move(batch));
  for (auto& w : waiters) w.join();
  EXPECT_EQ(got.load(), 3);
}

TEST(TaskQueueTest, StealCrossesShards) {
  TaskQueue q(4);
  ASSERT_EQ(q.num_shards(), 4u);
  // Fill one specific shard, then pop with a home on a different shard:
  // every pop must be served by stealing.
  for (int i = 0; i < 8; ++i) {
    q.PushToShard(2, Work(TaskKind::kProcessToken, [] { return Status::OK(); }));
  }
  Task t;
  int popped = 0;
  while (q.TryPopFromShard(/*home=*/0, &t)) {
    ++popped;
    q.MarkDone();
  }
  EXPECT_EQ(popped, 8);
  EXPECT_EQ(q.stats().steals, 8u);
  auto shards = q.shard_stats();
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[2].pushed, 8u);
  EXPECT_EQ(shards[2].steals, 8u);
}

TEST(TaskQueueTest, HomeShardPopIsNotASteal) {
  TaskQueue q(4);
  q.PushToShard(1, Work(TaskKind::kProcessToken, [] { return Status::OK(); }));
  Task t;
  ASSERT_TRUE(q.TryPopFromShard(1, &t));
  q.MarkDone();
  EXPECT_EQ(q.stats().steals, 0u);
}

TEST(TaskQueueTest, MaxSizeIsGlobalHighWater) {
  // The ipc credit window depends on max_size covering ALL shards, not
  // the deepest single shard.
  TaskQueue q(4);
  for (uint32_t s = 0; s < 4; ++s) {
    for (int i = 0; i < 3; ++i) {
      q.PushToShard(s, Work(TaskKind::kProcessToken, [] { return Status::OK(); }));
    }
  }
  EXPECT_EQ(q.stats().max_size, 12u);
}

TEST(TaskQueueTest, ManyThreadsPushPopAllTasksSurvive) {
  TaskQueue q;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &done] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.Push(Work(TaskKind::kProcessToken, [&done] {
          ++done;
          return Status::OK();
        }));
      }
    });
  }
  std::vector<std::thread> consumers;
  std::atomic<bool> stop{false};
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&q, &stop] {
      Task t;
      while (!stop.load(std::memory_order_relaxed)) {
        if (q.WaitPop(&t, std::chrono::milliseconds(10))) {
          (void)t.work();
          q.MarkDone();
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  q.WaitIdle();
  stop = true;
  for (auto& c : consumers) c.join();
  EXPECT_EQ(done.load(), kProducers * kPerProducer);
  auto st = q.stats();
  EXPECT_EQ(st.pushed, static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(st.popped, st.pushed);
}

TEST(TaskQueueTest, ConcurrentPushPopNeverWrapsDepth) {
  // A pop must never subtract a push's tasks from the depth before the
  // push has added them: the wrapped depth reads ~1.8e19, in max_size and
  // in size(), which the ipc credit window reads on every grant.
  TaskQueue q(2);
  constexpr int kProducers = 3;
  constexpr int kRounds = 3000;
  constexpr uint64_t kTotal = kProducers * kRounds * 3;
  std::atomic<bool> stop{false};
  std::atomic<size_t> max_seen{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q] {
      for (int i = 0; i < kRounds; ++i) {
        q.Push(Work(TaskKind::kProcessToken, [] { return Status::OK(); }));
        std::vector<Task> batch;
        batch.push_back(
            Work(TaskKind::kProcessToken, [] { return Status::OK(); }));
        batch.push_back(
            Work(TaskKind::kRunAction, [] { return Status::OK(); }));
        q.PushBatch(std::move(batch));
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&q, &stop] {
      std::vector<Task> out;
      while (!stop.load(std::memory_order_relaxed) || !q.empty()) {
        out.clear();
        size_t n = q.PopBatch(&out, 2);
        for (size_t i = 0; i < n; ++i) q.MarkDone();
      }
    });
  }
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      size_t depth = q.size();
      size_t seen = max_seen.load(std::memory_order_relaxed);
      if (depth > seen) max_seen.store(depth, std::memory_order_relaxed);
    }
  });
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  stop = true;
  for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  monitor.join();
  auto st = q.stats();
  EXPECT_EQ(st.pushed, kTotal);
  EXPECT_EQ(st.popped, kTotal);
  EXPECT_LE(st.max_size, st.pushed);
  EXPECT_LE(max_seen.load(), kTotal);
  EXPECT_EQ(q.size(), 0u);
}

TEST(TaskQueueTest, WaitPopTimesOutWhenEmpty) {
  TaskQueue q;
  Task t;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.WaitPop(&t, std::chrono::milliseconds(30)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
}

TEST(TaskQueueTest, WaitPopWakesOnPush) {
  TaskQueue q;
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    Task t;
    if (q.WaitPop(&t, std::chrono::seconds(5))) {
      got = true;
      q.MarkDone();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Push(Work(TaskKind::kProcessToken, [] { return Status::OK(); }));
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(TaskQueueTest, WaitIdleSeesInFlightTasks) {
  TaskQueue q;
  q.Push(Work(TaskKind::kProcessToken, [] { return Status::OK(); }));
  Task t;
  ASSERT_TRUE(q.TryPop(&t));
  EXPECT_EQ(q.in_flight(), 1u);
  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    q.WaitIdle();
    idle = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(idle.load());  // still in flight
  q.MarkDone();
  waiter.join();
  EXPECT_TRUE(idle.load());
}

TEST(DriverTest, ComputeNumDriversFormula) {
  DriverConfig cfg;
  cfg.num_cpus = 8;
  cfg.concurrency_level = 1.0;
  EXPECT_EQ(ComputeNumDrivers(cfg), 8u);  // N = ceil(8 * 1.0)
  cfg.concurrency_level = 0.5;
  EXPECT_EQ(ComputeNumDrivers(cfg), 4u);
  cfg.concurrency_level = 0.3;
  EXPECT_EQ(ComputeNumDrivers(cfg), 3u);  // ceil(2.4)
  cfg.num_drivers = 2;  // explicit override
  EXPECT_EQ(ComputeNumDrivers(cfg), 2u);
}

TEST(DriverTest, TmanTestDrainsUntilEmpty) {
  TaskQueue q;
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    q.Push(Work(TaskKind::kProcessToken, [&done] {
      ++done;
      return Status::OK();
    }));
  }
  ExecutorStats stats;
  auto result = TmanTest(&q, std::chrono::milliseconds(250), &stats);
  EXPECT_EQ(result, TmanTestResult::kTaskQueueEmpty);
  EXPECT_EQ(done.load(), 10);
  EXPECT_EQ(stats.tasks_executed, 10u);
}

TEST(DriverTest, TmanTestRespectsThreshold) {
  TaskQueue q;
  for (int i = 0; i < 100; ++i) {
    q.Push(Work(TaskKind::kProcessToken, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return Status::OK();
    }));
  }
  ExecutorStats stats;
  auto result = TmanTest(&q, std::chrono::milliseconds(20), &stats);
  // THRESHOLD cuts execution short; work remains.
  EXPECT_EQ(result, TmanTestResult::kTasksRemaining);
  EXPECT_LT(stats.tasks_executed, 100u);
  EXPECT_GT(stats.tasks_executed, 0u);
}

TEST(DriverTest, TaskErrorsCountedNotFatal) {
  TaskQueue q;
  q.Push(Work(TaskKind::kRunAction,
              [] { return Status::Internal("boom"); }));
  q.Push(Work(TaskKind::kRunAction, [] { return Status::OK(); }));
  ExecutorStats stats;
  TmanTest(&q, std::chrono::milliseconds(250), &stats);
  EXPECT_EQ(stats.tasks_executed, 2u);
  EXPECT_EQ(stats.task_errors, 1u);
}

TEST(DriverPoolTest, ExecutesAllTasksAcrossDrivers) {
  TaskQueue q;
  DriverConfig cfg;
  cfg.num_drivers = 3;
  cfg.period = std::chrono::milliseconds(10);
  DriverPool pool(&q, cfg);
  EXPECT_EQ(pool.num_drivers(), 3u);
  pool.Start();
  std::atomic<int> done{0};
  for (int i = 0; i < 500; ++i) {
    q.Push(Work(TaskKind::kProcessToken, [&done] {
      ++done;
      return Status::OK();
    }));
  }
  pool.Drain();
  EXPECT_EQ(done.load(), 500);
  pool.Stop();
  EXPECT_GE(pool.stats().tasks_executed, 500u);
}

TEST(DriverPoolTest, TasksPushedWhileRunningGetPickedUp) {
  TaskQueue q;
  DriverConfig cfg;
  cfg.num_drivers = 2;
  cfg.period = std::chrono::milliseconds(5);
  DriverPool pool(&q, cfg);
  pool.Start();
  std::atomic<int> done{0};
  // Tasks that spawn more tasks (like token tasks spawning action tasks).
  for (int i = 0; i < 50; ++i) {
    q.Push(Work(TaskKind::kProcessToken, [&q, &done] {
      q.Push(Work(TaskKind::kRunAction, [&done] {
        ++done;
        return Status::OK();
      }));
      return Status::OK();
    }));
  }
  pool.Drain();
  EXPECT_EQ(done.load(), 50);
  pool.Stop();
}

TEST(DriverPoolTest, StopIsIdempotentAndRestartable) {
  TaskQueue q;
  DriverConfig cfg;
  cfg.num_drivers = 1;
  DriverPool pool(&q, cfg);
  pool.Start();
  pool.Start();  // no-op
  pool.Stop();
  pool.Stop();  // no-op
}

}  // namespace
}  // namespace tman
