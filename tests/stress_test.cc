// Concurrency stress tests: trigger creation racing token matching,
// multi-driver processing under load, and storage reopen/durability.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "core/trigger_manager.h"
#include "parser/parser.h"
#include "storage/bptree.h"
#include "util/random.h"

namespace tman {
namespace {

TEST(StressTest, CreateTriggersWhileMatching) {
  // Exclusive-lock trigger creation must interleave safely with
  // shared-lock matching from concurrent "driver" threads.
  PredicateIndex index(nullptr, OrgPolicy());
  Schema schema({{"k", DataType::kInt}, {"v", DataType::kInt}});
  ASSERT_TRUE(index.RegisterDataSource(1, schema).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_matches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> matchers;
  for (int t = 0; t < 2; ++t) {
    matchers.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) + 1);
      while (!stop.load(std::memory_order_acquire)) {
        Tuple tuple({Value::Int(rng.UniformRange(0, 99)), Value::Int(1)});
        std::vector<PredicateMatch> out;
        if (!index.Match(UpdateDescriptor::Insert(1, tuple), &out).ok()) {
          ++errors;
        }
        total_matches.fetch_add(out.size(), std::memory_order_relaxed);
      }
    });
  }

  // Meanwhile create (and occasionally remove) predicates.
  std::vector<ExprId> created;
  for (int i = 0; i < 2000; ++i) {
    PredicateSpec spec;
    spec.data_source = 1;
    spec.op = OpCode::kInsertOrUpdate;
    auto pred = ParseExpressionString("t.k = " + std::to_string(i % 100));
    ASSERT_TRUE(pred.ok());
    spec.predicate = *pred;
    spec.trigger_id = static_cast<TriggerId>(i + 1);
    auto added = index.AddPredicate(spec);
    ASSERT_TRUE(added.ok());
    created.push_back(added->expr_id);
    if (i % 7 == 0 && created.size() > 10) {
      ASSERT_TRUE(index.RemovePredicate(created.front()).ok());
      created.erase(created.begin());
    }
  }
  // Every key value has predicates now; let the matchers observe the
  // populated index before stopping (on a loaded machine they may not
  // have been scheduled at all during the build loop above).
  while (total_matches.load(std::memory_order_relaxed) == 0 &&
         errors.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : matchers) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(total_matches.load(), 0u);
  EXPECT_EQ(index.stats().num_predicates, created.size());
}

TEST(StressTest, DriversUnderSustainedLoad) {
  Database db;
  ASSERT_TRUE(db.CreateTable("emp", Schema({{"name", DataType::kVarchar},
                                            {"salary", DataType::kFloat},
                                            {"dept", DataType::kInt}}))
                  .ok());
  TriggerManagerOptions options;
  options.driver_config.num_drivers = 3;
  options.driver_config.period = std::chrono::milliseconds(2);
  options.concurrent_actions = true;  // exercise action tasks too
  TriggerManager tman(&db, options);
  ASSERT_TRUE(tman.Open().ok());
  ASSERT_TRUE(tman.DefineLocalTableSource("emp").ok());
  for (int d = 0; d < 10; ++d) {
    ASSERT_TRUE(tman.ExecuteCommand(
                        "create trigger t" + std::to_string(d) +
                        " from emp on insert when emp.dept = " +
                        std::to_string(d) + " do raise event E" +
                        std::to_string(d) + "(emp.name)")
                    .ok());
  }
  ASSERT_TRUE(tman.Start().ok());

  // Two application threads hammer the table while drivers process.
  std::atomic<int> errors{0};
  std::vector<std::thread> writers;
  constexpr int kPerWriter = 500;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Random rng(static_cast<uint64_t>(w) + 77);
      for (int i = 0; i < kPerWriter; ++i) {
        auto s = db.Insert(
            "emp", Tuple({Value::String("w" + std::to_string(w) + "-" +
                                        std::to_string(i)),
                          Value::Float(1),
                          Value::Int(rng.UniformRange(0, 19))}));
        if (!s.ok()) ++errors;
      }
    });
  }
  for (auto& th : writers) th.join();
  tman.Drain();
  tman.Stop();

  EXPECT_EQ(errors.load(), 0);
  auto stats = tman.stats();
  EXPECT_EQ(stats.updates_submitted, 2u * kPerWriter);
  EXPECT_EQ(stats.tokens_processed, 2u * kPerWriter);
  // Depts 0..9 fire (half the uniform range over 0..19): expect ~half of
  // the inserts to fire exactly once each.
  EXPECT_EQ(stats.rule_firings, tman.events().num_raised());
  EXPECT_GT(stats.rule_firings, 2u * kPerWriter / 4);
  EXPECT_LT(stats.rule_firings, 3u * kPerWriter / 2);
}

TEST(StressTest, MultiDriverBatchedSubmissionAllShardedLayers) {
  // The scaling hot path end to end: batched submission (one PushBatch
  // per batch) into the sharded task queue, drivers matching against the
  // striped predicate index across several data sources, firings pinning
  // hot triggers in the sharded cache. Runs under the tsan preset — this
  // is the data-race proof for the whole sharded hot path.
  Database db;
  constexpr int kSources = 4;
  for (int s = 0; s < kSources; ++s) {
    ASSERT_TRUE(db.CreateTable("s" + std::to_string(s),
                               Schema({{"k", DataType::kInt},
                                       {"v", DataType::kInt}}))
                    .ok());
  }
  TriggerManagerOptions options;
  options.driver_config.num_drivers = 4;
  options.driver_config.period = std::chrono::milliseconds(2);
  TriggerManager tman(&db, options);
  ASSERT_TRUE(tman.Open().ok());
  for (int s = 0; s < kSources; ++s) {
    ASSERT_TRUE(tman.DefineLocalTableSource("s" + std::to_string(s)).ok());
    for (int t = 0; t < 4; ++t) {
      ASSERT_TRUE(tman.ExecuteCommand(
                          "create trigger s" + std::to_string(s) + "t" +
                          std::to_string(t) + " from s" + std::to_string(s) +
                          " on insert when s" + std::to_string(s) +
                          ".k = " + std::to_string(t) + " do raise event B" +
                          std::to_string(s) + "_" + std::to_string(t) +
                          "(s" + std::to_string(s) + ".v)")
                      .ok());
    }
  }
  ASSERT_TRUE(tman.Start().ok());

  // Three submitter threads, each sending batches of 32 tokens spread
  // over all sources: every batch is ONE task-queue PushBatch.
  constexpr int kSubmitters = 3;
  constexpr int kBatches = 20;
  constexpr int kBatchSize = 32;
  std::atomic<int> errors{0};
  std::vector<std::thread> submitters;
  for (int w = 0; w < kSubmitters; ++w) {
    submitters.emplace_back([&, w] {
      Random rng(static_cast<uint64_t>(w) * 31 + 7);
      for (int b = 0; b < kBatches; ++b) {
        std::vector<UpdateDescriptor> batch;
        batch.reserve(kBatchSize);
        for (int i = 0; i < kBatchSize; ++i) {
          auto src = tman.sources().Lookup(
              "s" + std::to_string(rng.UniformRange(0, kSources - 1)));
          if (!src.ok()) {
            ++errors;
            continue;
          }
          batch.push_back(UpdateDescriptor::Insert(
              src->id,
              Tuple({Value::Int(rng.UniformRange(0, 7)), Value::Int(i)})));
        }
        std::vector<Status> per_update;
        if (!tman.SubmitUpdateBatch(batch, &per_update).ok()) ++errors;
        for (const Status& s : per_update) {
          if (!s.ok()) ++errors;
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  tman.Drain();
  tman.Stop();

  EXPECT_EQ(errors.load(), 0);
  constexpr uint64_t kTotal = kSubmitters * kBatches * kBatchSize;
  auto stats = tman.stats();
  EXPECT_EQ(stats.updates_submitted, kTotal);
  EXPECT_EQ(stats.tokens_processed, kTotal);
  // k is uniform over 0..7 and triggers cover 0..3: about half fire.
  EXPECT_EQ(stats.rule_firings, tman.events().num_raised());
  EXPECT_GT(stats.rule_firings, kTotal / 4);
  EXPECT_LT(stats.rule_firings, kTotal);
  // The task queue's own ledger balances across shards. Memory-mode
  // batches ride the columnar pipeline: each 32-token batch is ONE
  // ProcessTokenBatch task, so the floor is one task per submitted batch
  // (tokens_processed above proves per-token coverage).
  auto qstats = tman.task_queue().stats();
  EXPECT_EQ(qstats.popped, qstats.pushed);
  EXPECT_GE(qstats.pushed,
            static_cast<uint64_t>(kSubmitters) * kBatches);
  // Trigger pins were overwhelmingly cache hits (the working set is 16
  // triggers against a 16k-capacity cache).
  EXPECT_GT(stats.cache.hits, stats.cache.misses);
}

TEST(StressTest, EnableTogglesAndConsumerChurnWhileFiring) {
  // The fire path reads enabled state from atomics on the pinned runtime
  // and delivers events from a copy-on-write consumer snapshot. Toggle
  // triggers and their set, and register/unregister consumers, while
  // drivers fire; under the tsan preset this is the data-race proof for
  // both. Once everything is disabled, nothing may fire.
  Database db;
  TriggerManagerOptions options;
  options.driver_config.num_drivers = 3;
  options.driver_config.period = std::chrono::milliseconds(1);
  options.batch_size = 16;
  TriggerManager tman(&db, options);
  ASSERT_TRUE(tman.Open().ok());
  Schema schema({{"k", DataType::kInt}, {"v", DataType::kInt}});
  auto src = tman.DefineStreamSource("ticks", schema);
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(tman.ExecuteCommand("create trigger set hot 'toggled'").ok());
  for (int t = 0; t < 4; ++t) {
    std::string set = t % 2 == 0 ? " in hot" : "";
    ASSERT_TRUE(tman.ExecuteCommand(
                        "create trigger t" + std::to_string(t) + set +
                        " from ticks when ticks.k = " + std::to_string(t) +
                        " do raise event T" + std::to_string(t) +
                        "(ticks.v * 2, ticks.v + 0.5)")
                    .ok());
  }
  ASSERT_TRUE(tman.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<uint64_t> delivered{0};
  std::thread toggler([&] {
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      std::string cmd = (i % 2 == 0 ? "disable " : "enable ") +
                        std::string(i % 3 == 0 ? "trigger set hot"
                                               : "trigger t1");
      if (!tman.ExecuteCommand(cmd).ok()) ++errors;
    }
  });
  std::thread churn([&] {
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t id = tman.events().Register(
          "t1", [&](const Event&) { delivered.fetch_add(1); });
      std::this_thread::yield();
      tman.events().Unregister(id);
    }
  });
  Random rng(5);
  for (int b = 0; b < 40; ++b) {
    std::vector<UpdateDescriptor> batch;
    for (int i = 0; i < 32; ++i) {
      batch.push_back(UpdateDescriptor::Insert(
          *src, Tuple({Value::Int(rng.UniformRange(0, 3)), Value::Int(i)})));
    }
    if (!tman.SubmitUpdateBatch(batch).ok()) ++errors;
  }
  tman.Drain();
  stop.store(true, std::memory_order_release);
  toggler.join();
  churn.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(tman.stats().rule_firings, tman.events().num_raised());

  // Everything off: later tokens fire nothing.
  ASSERT_TRUE(tman.ExecuteCommand("disable trigger set hot").ok());
  ASSERT_TRUE(tman.ExecuteCommand("disable trigger t1").ok());
  ASSERT_TRUE(tman.ExecuteCommand("disable trigger t3").ok());
  const uint64_t raised = tman.events().num_raised();
  std::vector<UpdateDescriptor> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(UpdateDescriptor::Insert(
        *src, Tuple({Value::Int(i % 4), Value::Int(i)})));
  }
  ASSERT_TRUE(tman.SubmitUpdateBatch(batch).ok());
  tman.Drain();
  tman.Stop();
  EXPECT_EQ(tman.events().num_raised(), raised);
}

TEST(StressTest, CreateAndDropTriggersWhileFiring) {
  // CreateTrigger registers a trigger's predicates before it publishes
  // the trigger, and DropTrigger unpublishes it before it removes them.
  // A token matching a trigger in either window must skip that match and
  // keep its others. The 4-entry cache makes most such matches misses,
  // the case that loads the trigger. Selection and join triggers churn
  // on the source while drivers fire; the stable triggers' counts must
  // come out exact.
  Database db;
  TriggerManagerOptions options;
  options.driver_config.num_drivers = 3;
  options.driver_config.period = std::chrono::milliseconds(1);
  options.trigger_cache_capacity = 4;
  options.batch_size = 16;
  TriggerManager tman(&db, options);
  ASSERT_TRUE(tman.Open().ok());
  Schema schema({{"k", DataType::kInt}, {"v", DataType::kInt}});
  auto ticks = tman.DefineStreamSource("ticks", schema);
  auto marks = tman.DefineStreamSource("marks", schema);
  ASSERT_TRUE(ticks.ok() && marks.ok());
  constexpr int kStable = 3;
  constexpr int kGroups = 8;
  for (int t = 0; t < kStable; ++t) {
    ASSERT_TRUE(tman.ExecuteCommand(
                        "create trigger keep" + std::to_string(t) +
                        " from ticks when ticks.v >= 0 do raise event Keep" +
                        std::to_string(t) + "(ticks.k)")
                    .ok());
  }
  ASSERT_TRUE(tman.ExecuteCommand(
                      "create trigger groups from ticks group by ticks.k "
                      "having count(ticks.k) >= 1 do raise event Group(ticks.k)")
                  .ok());
  std::map<std::string, uint64_t> counts;
  std::mutex counts_mutex;
  tman.events().Register("*", [&](const Event& e) {
    std::lock_guard<std::mutex> lock(counts_mutex);
    ++counts[e.name];
  });
  ASSERT_TRUE(tman.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> rounds{0};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const char* cmd :
           {"create trigger churnsel from ticks when ticks.v >= 0 "
            "do raise event ChurnSel(ticks.k)",
            "create trigger churnjoin from ticks t, marks m "
            "when t.k = m.k do raise event ChurnJoin(t.k)",
            "drop trigger churnsel", "drop trigger churnjoin"}) {
        if (!tman.ExecuteCommand(cmd).ok()) ++errors;
      }
      rounds.fetch_add(1, std::memory_order_relaxed);
    }
  });
  constexpr int kBatches = 60;
  constexpr int kBatchSize = 32;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<UpdateDescriptor> batch;
    for (int i = 0; i < kBatchSize; ++i) {
      batch.push_back(UpdateDescriptor::Insert(
          *ticks, Tuple({Value::Int(i % kGroups), Value::Int(b)})));
      if (i % 8 == 0) {
        batch.push_back(UpdateDescriptor::Insert(
            *marks, Tuple({Value::Int(i % kGroups), Value::Int(b)})));
      }
    }
    if (!tman.SubmitUpdateBatch(batch).ok()) ++errors;
    // Let the churn interleave with processing.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  tman.Drain();
  stop.store(true, std::memory_order_release);
  churn.join();
  tman.Stop();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(rounds.load(), 0);
  std::lock_guard<std::mutex> lock(counts_mutex);
  for (int t = 0; t < kStable; ++t) {
    EXPECT_EQ(counts["Keep" + std::to_string(t)],
              static_cast<uint64_t>(kBatches * kBatchSize))
        << "keep" << t;
  }
  EXPECT_EQ(counts["Group"], static_cast<uint64_t>(kGroups));
}

TEST(StressTest, BPTreeSurvivesPoolFlushAndReopen) {
  DiskManager disk;
  auto pool = std::make_unique<BufferPool>(&disk, 64);
  auto meta = BPTree::Create(pool.get());
  ASSERT_TRUE(meta.ok());
  {
    BPTree tree(pool.get(), *meta);
    for (int64_t i = 0; i < 3000; ++i) {
      ASSERT_TRUE(tree.Insert({Value::Int(i)}, Rid{0, 0}).ok());
    }
    ASSERT_TRUE(pool->FlushAll().ok());
  }
  // A fresh buffer pool over the same "disk": everything must read back.
  pool = std::make_unique<BufferPool>(&disk, 64);
  BPTree reopened(pool.get(), *meta);
  EXPECT_EQ(*reopened.NumEntries(), 3000u);
  for (int64_t i = 0; i < 3000; i += 113) {
    EXPECT_EQ(reopened.SearchEqual({Value::Int(i)})->size(), 1u);
  }
}

// Four threads share one store, as the join triggers of a stream source
// do: each inserts, removes, prunes and probes its own tuples (second
// field = thread) under sequence tags while the others mutate the same
// memory and indexes. Every probe of a thread's view must see exactly
// its own model, since nobody else touches those tuples.
TEST(StressTest, SharedStoreConcurrentViews) {
  AlphaMemory store;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Random rng(static_cast<uint64_t>(t) + 11);
      // key -> the sequence numbers of this thread's live copies.
      std::map<int64_t, std::multiset<uint64_t>> model;
      for (uint64_t seq = 1; seq <= 3000; ++seq) {
        const int64_t key = rng.UniformRange(0, 20);
        const Tuple tuple({Value::Int(key), Value::Int(t)});
        const uint64_t pick = static_cast<uint64_t>(rng.UniformRange(0, 20));
        if (pick < 11) {
          store.Insert(tuple, seq);
          model[key].insert(seq);
        } else if (pick < 18) {
          // Removal takes the copy stored last.
          const bool removed = store.Remove(tuple);
          auto& copies = model[key];
          if (removed != !copies.empty()) ++mismatches;
          if (!copies.empty()) copies.erase(std::prev(copies.end()));
        } else if (pick < 19) {
          store.RemoveIf([&](const Tuple& x, uint64_t) {
            return x.at(0).as_int() == key && x.at(1).as_int() == t;
          });
          model[key].clear();
        }
        const uint64_t min_seq = seq / 2;
        size_t seen = 0;
        store.ProbeEqual(
            0, Value::Int(key),
            [&](const Tuple& x) {
              if (x.at(0).as_int() != key) ++mismatches;
              if (x.at(1).as_int() == t) ++seen;
              return true;
            },
            min_seq);
        const auto& copies = model[key];
        const size_t expected = static_cast<size_t>(
            std::distance(copies.lower_bound(min_seq), copies.end()));
        if (seen != expected) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  size_t counted = 0;
  store.ForEach([&counted](const Tuple&) {
    ++counted;
    return true;
  });
  EXPECT_EQ(counted, store.size());
}

}  // namespace
}  // namespace tman
