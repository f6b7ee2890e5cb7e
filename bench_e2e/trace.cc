#include "bench_e2e/trace.h"

#include <algorithm>
#include <set>

#include "bench_e2e/common.h"
#include "db/sql.h"
#include "expr/eval.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"

namespace tman::e2e {
namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t Delta(uint64_t before, uint64_t after) {
  return after >= before ? after - before : 0;
}

/// Runs `body` (one pass over `items` calls) until at least `min_s`
/// seconds and two passes have elapsed; returns ns per call.
template <typename Body>
double TimePerCall(size_t items, double min_s, Body body) {
  if (items == 0) return 0;
  uint64_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  int passes = 0;
  while (passes < 2 || SecondsSince(t0) < min_s) {
    body();
    calls += items;
    ++passes;
  }
  return SecondsSince(t0) * 1e9 / static_cast<double>(calls);
}

std::vector<UpdateDescriptor> Flatten(const Round& round) {
  std::vector<UpdateDescriptor> tokens;
  for (const auto& phase : round.phases) {
    tokens.insert(tokens.end(), phase.begin(), phase.end());
  }
  return tokens;
}

/// TaskQueue::PushBatch + PopBatch with the workload's batch shape.
double PushPopNsPerTask(size_t tasks_per_push, uint32_t pop_batch) {
  tasks_per_push = std::max<size_t>(1, tasks_per_push);
  const size_t pushes = std::max<size_t>(1, 16384 / tasks_per_push);
  TaskQueue queue;
  uint64_t tasks_done = 0;
  double seconds = 0;
  std::vector<Task> popped;
  while (seconds < 0.2) {
    std::vector<std::vector<Task>> batches(pushes);
    for (auto& batch : batches) {
      batch.resize(tasks_per_push);
      for (Task& t : batch) t.work = [] { return Status::OK(); };
    }
    const Clock::time_point t0 = Clock::now();
    for (auto& batch : batches) {
      queue.PushBatch(std::move(batch));
      for (;;) {
        popped.clear();
        const size_t n = queue.PopBatch(&popped, pop_batch);
        if (n == 0) break;
        for (size_t i = 0; i < n; ++i) queue.MarkDone();
        tasks_done += n;
      }
    }
    seconds += SecondsSince(t0);
  }
  return seconds * 1e9 / static_cast<double>(tasks_done);
}

/// Wal::Append + Commit on a fresh log, one record per recorded batch.
double WalAppendCommitUs(size_t payload_bytes) {
  DiskManager disk;
  const PageId header = CheckResult(Wal::Create(&disk), "wal create");
  std::unique_ptr<Wal> wal = CheckResult(Wal::Open(&disk, header), "wal open");
  const std::string payload(payload_bytes, 'x');
  constexpr int kRecords = 512;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kRecords; ++i) {
    const Lsn lsn =
        CheckResult(wal->Append(WalRecordType::kBatch, payload), "append");
    Check(wal->Commit(lsn), "commit");
  }
  return SecondsSince(t0) * 1e6 / kRecords;
}

}  // namespace

double MeanTokenBytes(const Round& round) {
  double bytes = 0;
  uint64_t n = 0;
  for (const auto& phase : round.phases) {
    for (const UpdateDescriptor& t : phase) {
      std::string record;
      t.Serialize(&record);
      bytes += static_cast<double>(record.size());
      ++n;
    }
  }
  return n > 0 ? bytes / static_cast<double>(n) : 0;
}

Counters ReadCounters(Deployment* d) {
  Counters c;
  c.tman = d->tman->stats();
  c.queue = d->tman->task_queue().stats();
  c.interpreter_calls = InterpreterEvalCalls();
  for (auto& client : d->clients) {
    const RemoteClientStats s = client->stats();
    c.clients.updates_sent += s.updates_sent;
    c.clients.updates_acked += s.updates_acked;
    c.clients.batches_sent += s.batches_sent;
    c.clients.credit_stalls += s.credit_stalls;
  }
  return c;
}

BacklogSampler::BacklogSampler(TriggerManager* tman)
    : tman_(tman), thread_([this] {
        auto raise = [](std::atomic<uint64_t>* max, uint64_t v) {
          if (v > max->load(std::memory_order_relaxed)) {
            max->store(v, std::memory_order_relaxed);
          }
        };
        while (!stop_.load(std::memory_order_relaxed)) {
          // TaskQueue::size() can read a transiently wrapped value (the
          // push side counts its tasks after a racing pop has already
          // subtracted them); such readings are not depths.
          const uint64_t depth = tman_->task_queue().size();
          if (depth < (uint64_t{1} << 62)) raise(&queue_max_, depth);
          raise(&pending_max_, tman_->WalPendingTokens());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }) {}

BacklogSampler::~BacklogSampler() { Stop(); }

void BacklogSampler::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void AppendCounterMetrics(const Counters& b, const Counters& a,
                          uint64_t tokens,
                          const std::vector<const LoopStats*>& loops,
                          const BacklogSampler& backlog, Metrics* out) {
  const double n = static_cast<double>(tokens);
  std::vector<double> flush_us;
  std::vector<double> drain_ms;
  std::vector<double> lag_ms;
  for (const LoopStats* loop : loops) {
    flush_us.insert(flush_us.end(), loop->flush_us.begin(),
                    loop->flush_us.end());
    drain_ms.insert(drain_ms.end(), loop->drain_ms.begin(),
                    loop->drain_ms.end());
    lag_ms.insert(lag_ms.end(), loop->lag_ms.begin(), loop->lag_ms.end());
  }
  auto add = [out](std::string name, double value, std::string unit) {
    out->push_back({std::move(name), value, std::move(unit)});
  };

  add("ipc.flush_us_p50", Percentile(&flush_us, 50), "us");
  add("ipc.flush_us_p99", Percentile(&flush_us, 99), "us");
  add("ipc.credit_stalls_per_ktok",
      Ratio(1000.0 * Delta(b.clients.credit_stalls, a.clients.credit_stalls),
            n),
      "1/ktok");
  add("ipc.drain_ms", Percentile(&drain_ms, 50), "ms");

  // Sampled, not TaskQueueStats::max_size: that high-water mark records
  // the transiently wrapped depth described in BacklogSampler.
  add("runtime.queue_depth_max", static_cast<double>(backlog.queue_depth_max()),
      "tasks");
  add("runtime.tasks_per_token", Ratio(Delta(b.queue.popped, a.queue.popped), n),
      "tasks/token");
  add("runtime.tasks_per_pop",
      Ratio(Delta(b.queue.batch_pop_tasks, a.queue.batch_pop_tasks),
            Delta(b.queue.batch_pops, a.queue.batch_pops)),
      "tasks/pop");

  const WalStats& wb = b.tman.wal;
  const WalStats& wa = a.tman.wal;
  add("storage.wal_bytes_per_token",
      Ratio(Delta(wb.bytes_appended, wa.bytes_appended), n), "B/token");
  add("storage.wal_truncations_per_ktok",
      Ratio(1000.0 * Delta(wb.truncations, wa.truncations), n), "1/ktok");
  add("storage.wal_commits_per_sync",
      Ratio(Delta(wb.commit_calls, wa.commit_calls),
            Delta(wb.sync_rounds, wa.sync_rounds)),
      "commits/sync");
  add("storage.wal_pending_max", static_cast<double>(backlog.wal_pending_max()),
      "tokens");

  auto stage = [&](Stage s, uint64_t StageSnapshot::*field) {
    return static_cast<double>(Delta(b.tman.stages.stage(s).*field,
                                     a.tman.stages.stage(s).*field));
  };
  using S = StageSnapshot;
  add("core.stage_ingest_ns_per_token",
      Ratio(stage(Stage::kIngest, &S::total_ns), stage(Stage::kIngest, &S::items)),
      "ns");
  add("core.stage_maintain_ns_per_token",
      Ratio(stage(Stage::kMaintain, &S::total_ns),
            stage(Stage::kMaintain, &S::items)),
      "ns");
  // kMatch encloses kFire, so the match stage's own time is the difference.
  add("core.stage_match_self_ns_per_token",
      Ratio(stage(Stage::kMatch, &S::total_ns) -
                stage(Stage::kFire, &S::total_ns),
            stage(Stage::kMatch, &S::items)),
      "ns");
  add("core.stage_fire_ns_per_firing",
      Ratio(stage(Stage::kFire, &S::total_ns), stage(Stage::kFire, &S::items)),
      "ns");
  add("core.firings_per_token",
      Ratio(Delta(b.tman.rule_firings, a.tman.rule_firings), n), "1/token");
  add("core.events_per_token",
      Ratio(Delta(b.tman.actions.events_raised, a.tman.actions.events_raised),
            n),
      "1/token");
  add("core.sql_per_token",
      Ratio(Delta(b.tman.actions.sql_statements, a.tman.actions.sql_statements),
            n),
      "1/token");

  add("predindex.matches_per_token",
      Ratio(Delta(b.tman.predicates.matches_emitted,
                  a.tman.predicates.matches_emitted),
            n),
      "1/token");
  add("predindex.signatures",
      static_cast<double>(a.tman.predicates.num_signatures), "count");

  add("expr.interpreter_calls_per_token",
      Ratio(Delta(b.interpreter_calls, a.interpreter_calls), n), "1/token");

  const double hits = Delta(b.tman.cache.hits, a.tman.cache.hits);
  const double misses = Delta(b.tman.cache.misses, a.tman.cache.misses);
  add("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 1.0,
      "ratio");
  add("cache.evictions_per_ktok",
      Ratio(1000.0 * Delta(b.tman.cache.evictions, a.tman.cache.evictions), n),
      "1/ktok");

  add("gen.lag_p99_ms", Percentile(&lag_ms, 99), "ms");
}

void AppendReplayMetrics(Deployment* d, const LoadGen& gen,
                         const Counters& b, const Counters& a, Metrics* out) {
  auto add = [out](std::string name, double value, std::string unit) {
    out->push_back({std::move(name), value, std::move(unit)});
  };
  TriggerManager* tman = d->tman.get();
  const std::vector<UpdateDescriptor> tokens = Flatten(gen.last_round());
  const double batches =
      static_cast<double>(Delta(b.clients.batches_sent, a.clients.batches_sent));

  // Task queue: tasks staged per submitted batch, drivers' pop size.
  const double tasks_per_push =
      Ratio(static_cast<double>(Delta(b.queue.pushed, a.queue.pushed)),
            batches);
  add("runtime.push_pop_ns_per_task",
      PushPopNsPerTask(static_cast<size_t>(std::llround(tasks_per_push)),
                       DriverConfig().pop_batch),
      "ns");

  // WAL: the batch record the durable path appends per submitted batch
  // (session stamp, then each token with its sequence number and length).
  double wal_us = 0;
  if (tman->wal_enabled()) {
    const double tokens_per_batch = Ratio(
        static_cast<double>(
            Delta(b.clients.updates_sent, a.clients.updates_sent)),
        batches);
    wal_us = WalAppendCommitUs(static_cast<size_t>(
        20 + tokens_per_batch * (MeanTokenBytes(gen.last_round()) + 12)));
  }
  add("storage.wal_append_commit_us", wal_us, "us");

  // Predicate index: the last round in 64-token groups, no-op callback.
  PredicateIndex& index = tman->predicate_index();
  constexpr size_t kGroup = 64;
  std::vector<std::vector<UpdateDescriptor>> groups;
  for (size_t i = 0; i < tokens.size(); i += kGroup) {
    groups.emplace_back(
        tokens.begin() + static_cast<ptrdiff_t>(i),
        tokens.begin() +
            static_cast<ptrdiff_t>(std::min(tokens.size(), i + kGroup)));
  }
  std::set<TriggerId> matched;
  for (const auto& group : groups) {
    (void)index.MatchBatch(group, 0, 1,
                           [&](size_t, const PredicateMatch& m) {
                             matched.insert(m.trigger_id);
                           });
  }
  add("predindex.match_ns_per_token",
      TimePerCall(tokens.size(), 0.2,
                  [&] {
                    for (const auto& group : groups) {
                      (void)index.MatchBatch(
                          group, 0, 1, [](size_t, const PredicateMatch&) {});
                    }
                  }),
      "ns");

  // Join network and MiniDB (join workloads only).
  const JoinReplaySpec join = d->workload->join_replay();
  double match_joins_us = 0;
  double add_remove_us = 0;
  double alpha_tuples = 0;
  double execsql_us = 0;
  if (!join.triggers.empty()) {
    std::vector<Tuple> arrivals;
    for (const UpdateDescriptor& t : tokens) {
      if (t.data_source == join.arrival_source && t.op == OpCode::kInsert) {
        arrivals.push_back(*t.new_tuple);
      }
      if (arrivals.size() == 256) break;
    }
    std::vector<std::pair<TriggerHandle, NetworkNodeId>> nets;
    for (const std::string& name : join.triggers) {
      TriggerHandle h = CheckResult(tman->PinTrigger(name), "pin join trigger");
      const size_t node =
          CheckResult(h->graph.NodeIndex(join.arrival_var), "arrival node");
      for (size_t n = 0; n < h->network->num_nodes(); ++n) {
        alpha_tuples += static_cast<double>(h->network->memory_size(n));
      }
      nets.emplace_back(std::move(h), static_cast<NetworkNodeId>(node));
    }
    const auto noop = [](const std::vector<Tuple>&) {};
    match_joins_us =
        TimePerCall(nets.size() * arrivals.size(), 0.2, [&] {
          for (const auto& [h, node] : nets) {
            for (const Tuple& t : arrivals) {
              Check(h->network->MatchJoins(node, t, noop), "match joins");
            }
          }
        }) /
        1e3;
    Tuple probe = arrivals.empty() ? Tuple() : arrivals.front();
    if (!arrivals.empty()) probe.at(0) = Value::Int(-1);  // not a live tuple
    add_remove_us = TimePerCall(nets.size(), 0.2, [&] {
                      for (const auto& [h, node] : nets) {
                        Check(h->network->AddTuple(node, probe), "add tuple");
                        Check(h->network->RemoveTuple(node, probe),
                              "remove tuple");
                      }
                    }) /
                    1e3;
    execsql_us = TimePerCall(arrivals.size(), 0.2, [&] {
                   for (const Tuple& t : arrivals) {
                     Check(ExecuteSql(tman->database(), join.audit_sql(t))
                               .status(),
                           "audit sql");
                   }
                 }) /
                 1e3;
  }
  add("network.match_joins_us", match_joins_us, "us");
  add("network.add_remove_us", add_remove_us, "us");
  add("network.alpha_tuples", alpha_tuples, "count");
  add("db.execsql_us", execsql_us, "us");

  // Trigger cache: pins of the ids the last round matched (hits), then
  // the same ids after invalidation (catalog load + runtime build). Last,
  // because invalidated join triggers restart with empty memories.
  std::vector<TriggerId> hot(matched.begin(), matched.end());
  if (hot.size() > 512) hot.resize(512);
  TriggerCache& cache = tman->cache();
  // Keep the ids that stay resident: a loaded id can be the CLOCK hand's
  // next victim, so some ids miss on every pass. Filtering out the ids
  // that missed leaves a set whose pins are all hits (hits insert
  // nothing, so they evict nothing).
  std::vector<TriggerId> resident = hot;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<TriggerId> kept;
    for (TriggerId id : resident) {
      const uint64_t misses = cache.stats().misses;
      (void)cache.Pin(id);
      if (cache.stats().misses == misses) kept.push_back(id);
    }
    resident.swap(kept);
  }
  add("cache.pin_hit_ns", TimePerCall(resident.size(), 0.1,
                                      [&] {
                                        for (TriggerId id : resident) {
                                          (void)cache.Pin(id);
                                        }
                                      }),
      "ns");
  double miss_s = 0;
  for (TriggerId id : hot) {
    cache.Invalidate(id);
    const Clock::time_point t0 = Clock::now();
    Check(cache.Pin(id).status(), "pin after invalidate");
    miss_s += SecondsSince(t0);
  }
  add("cache.pin_miss_us",
      hot.empty() ? 0 : miss_s * 1e6 / static_cast<double>(hot.size()), "us");
}

}  // namespace tman::e2e
