// Hot-path scaling (§6: "the number of concurrent TriggerMan driver
// processes ... can be tuned"): aggregate token throughput as the
// driver count grows, plus per-choke-point microbenchmarks for the
// three sharded layers (task queue, predicate index stripes, trigger
// cache shards).
//
// The driver-scaling benchmark models the blocking part of rule-action
// work — delivering a raised event to a remote consumer, calling a UDF
// that does I/O — as a fixed per-event sleep. That is the regime the
// paper's driver formula targets (concurrency_level = the fraction of
// time a driver spends blocked): drivers overlap their waits, so
// throughput scales with the driver count even on a single CPU. The
// pure-CPU contention microbenchmarks (->Threads(N)) additionally show
// that the sharded structures do not serialize on a global lock when
// real cores are available.
//
// `bench_scaling --smoke` runs the 1-driver and 8-driver rounds once
// and asserts the >=3x aggregate-throughput acceptance bound; CI runs
// it on every push.

#include "bench/bench_common.h"

#include <chrono>
#include <thread>
#include <vector>

#include "cache/trigger_cache.h"
#include "core/trigger.h"
#include "core/trigger_manager.h"
#include "runtime/task_queue.h"

namespace tman::bench {
namespace {

constexpr int kSymbols = 64;
constexpr int kTriggers = 192;  // ~3 predicates per symbol
constexpr auto kDeliveryLatency = std::chrono::microseconds(500);

/// TriggerManager with N drivers, a predicate-index-bound trigger
/// population, and a blocking event consumer that models downstream
/// delivery latency.
struct ScalingFixture {
  Database db;
  std::unique_ptr<TriggerManager> tman;
  DataSourceId ds = 0;

  /// `token_batch_width` overrides TriggerManagerOptions::batch_size (the
  /// columnar TokenBatch width, 0 = default); `blocking_consumer` toggles
  /// the per-event delivery sleep — off for CPU-bound rounds that measure
  /// the evaluation pipeline itself.
  explicit ScalingFixture(uint32_t num_drivers,
                          uint32_t token_batch_width = 0,
                          bool blocking_consumer = true) {
    TriggerManagerOptions options;
    options.driver_config.num_drivers = num_drivers;
    options.driver_config.period = std::chrono::milliseconds(1);
    if (token_batch_width != 0) options.batch_size = token_batch_width;
    tman = std::make_unique<TriggerManager>(&db, options);
    Check(tman->Open(), "open");
    ds = Check(tman->DefineStreamSource("quotes", QuoteSchema()),
               "define source");
    Random rng(11);
    for (int i = 0; i < kTriggers; ++i) {
      std::string cmd = "create trigger t" + std::to_string(i) +
                        " from quotes when quotes.symbol = 'SYM" +
                        std::to_string(rng.Uniform(kSymbols)) +
                        "' do raise event E(quotes.price)";
      Check(tman->ExecuteCommand(cmd).status(), "create trigger");
    }
    // The blocking stage: every firing delivers its event to a consumer
    // whose handling takes kDeliveryLatency of wall time (remote push,
    // blocking UDF, engine round trip). Drivers overlap these waits.
    if (blocking_consumer) {
      tman->events().Register("*", [](const Event&) {
        std::this_thread::sleep_for(kDeliveryLatency);
      });
    }
    Check(tman->Start(), "start");
  }

  ~ScalingFixture() { tman->Stop(); }

  /// Submits `tokens` updates in batches of `batch_size` and drains.
  void RunRound(int tokens, int batch_size) {
    Random rng(7);
    std::vector<UpdateDescriptor> batch;
    batch.reserve(batch_size);
    for (int i = 0; i < tokens; ++i) {
      batch.push_back(QuoteTick(&rng, kSymbols, ds));
      if (static_cast<int>(batch.size()) == batch_size) {
        Check(tman->SubmitUpdateBatch(batch), "submit batch");
        batch.clear();
      }
    }
    if (!batch.empty()) Check(tman->SubmitUpdateBatch(batch), "submit batch");
    tman->Drain();
  }
};

// --- the headline: aggregate token throughput vs driver count ---------------

void BM_DriverScalingTokens(benchmark::State& state) {
  const auto num_drivers = static_cast<uint32_t>(state.range(0));
  // Width 1: blocking deliveries overlap best as per-token tasks (a wide
  // batch would serialize its deliveries inside one driver) — this is
  // exactly what the batch_size knob is for. BM_TokenBatchWidth measures
  // the CPU-bound regime where wide batches win.
  ScalingFixture fx(num_drivers, /*token_batch_width=*/1);
  const int kTokensPerIter = 512;
  for (auto _ : state) {
    fx.RunRound(kTokensPerIter, /*batch_size=*/64);
  }
  state.SetItemsProcessed(state.iterations() * kTokensPerIter);
  state.counters["drivers"] = num_drivers;
}
BENCHMARK(BM_DriverScalingTokens)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- choke point 1: the sharded task queue ----------------------------------

// Contended push+pop from N threads against one queue. Before sharding
// every operation took the single queue mutex; now a thread usually
// touches only its home shard.
void BM_TaskQueuePushPopContended(benchmark::State& state) {
  static TaskQueue* queue = nullptr;
  if (state.thread_index() == 0) queue = new TaskQueue();
  for (auto _ : state) {
    Task t;
    t.kind = TaskKind::kProcessToken;
    t.work = [] { return Status::OK(); };
    queue->Push(std::move(t));
    Task out;
    if (queue->TryPop(&out)) queue->MarkDone();
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete queue;
    queue = nullptr;
  }
}
BENCHMARK(BM_TaskQueuePushPopContended)->Threads(1)->Threads(4)->Threads(8);

// Batch amortization: 64 tokens through one PushBatch vs 64 Push calls.
void BM_TaskQueuePushOneByOne(benchmark::State& state) {
  TaskQueue queue;
  const int kBatch = 64;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      Task t;
      t.kind = TaskKind::kProcessToken;
      t.work = [] { return Status::OK(); };
      queue.Push(std::move(t));
    }
    Task out;
    while (queue.TryPop(&out)) queue.MarkDone();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TaskQueuePushOneByOne);

void BM_TaskQueuePushBatch(benchmark::State& state) {
  TaskQueue queue;
  const int kBatch = 64;
  for (auto _ : state) {
    std::vector<Task> batch;
    batch.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      Task t;
      t.kind = TaskKind::kProcessToken;
      t.work = [] { return Status::OK(); };
      batch.push_back(std::move(t));
    }
    queue.PushBatch(std::move(batch));
    Task out;
    while (queue.TryPop(&out)) queue.MarkDone();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TaskQueuePushBatch);

// Consumer-side mirror: drain 256 queued tasks through PopBatch at
// claim widths 8/64/256 — one shard-lock acquisition per claim instead
// of one per task.
void BM_TaskQueuePopBatch(benchmark::State& state) {
  TaskQueue queue;
  const auto width = static_cast<size_t>(state.range(0));
  const int kTasks = 256;
  std::vector<Task> out;
  out.reserve(width);
  for (auto _ : state) {
    for (int i = 0; i < kTasks; ++i) {
      Task t;
      t.kind = TaskKind::kProcessToken;
      t.work = [] { return Status::OK(); };
      queue.Push(std::move(t));
    }
    size_t n;
    while ((n = queue.PopBatch(&out, width)) != 0) {
      for (size_t k = 0; k < n; ++k) queue.MarkDone();
      out.clear();
    }
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_TaskQueuePopBatch)->Arg(8)->Arg(64)->Arg(256);

// --- batched dispatch: columnar token-batch width sweep ---------------------

// End-to-end CPU-bound pipeline (no blocking consumer) at TokenBatch
// widths 1/8/64/256: ingestion chunks flow through PushBatchToShard ->
// PopBatch -> ProcessTokenBatch -> the batched compiled evaluator, so
// the per-token cost shows the batch width amortizing dispatch and
// enabling the columnar kernels. Width 1 is the scalar ProcessToken
// pipeline, the baseline the wider batches have to beat.
void BM_TokenBatchWidth(benchmark::State& state) {
  const auto width = static_cast<uint32_t>(state.range(0));
  ScalingFixture fx(/*num_drivers=*/2, /*token_batch_width=*/width,
                    /*blocking_consumer=*/false);
  const int kTokensPerIter = 2048;
  for (auto _ : state) {
    fx.RunRound(kTokensPerIter, /*batch_size=*/256);
  }
  state.SetItemsProcessed(state.iterations() * kTokensPerIter);
  state.counters["batch"] = width;
}
BENCHMARK(BM_TokenBatchWidth)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- choke point 2: the striped predicate index -----------------------------

// Concurrent Match against distinct data sources: each thread's lookups
// take only its source's stripe read lock. Before striping all matchers
// shared one reader-writer lock (and create/drop stalled all of them).
void BM_PredicateIndexMatchStriped(benchmark::State& state) {
  static PredicateIndex* index = nullptr;
  constexpr int kSources = 8;
  if (state.thread_index() == 0) {
    index = new PredicateIndex(nullptr, OrgPolicy());
    Schema schema({{"k", DataType::kInt}, {"v", DataType::kInt}});
    for (int s = 1; s <= kSources; ++s) {
      Check(index->RegisterDataSource(s, schema), "register");
      for (int i = 0; i < 100; ++i) {
        PredicateSpec spec;
        spec.data_source = static_cast<DataSourceId>(s);
        spec.op = OpCode::kInsertOrUpdate;
        spec.predicate = MustParse("t.k = " + std::to_string(i % 50));
        spec.trigger_id = static_cast<TriggerId>(s * 1000 + i);
        Check(index->AddPredicate(spec).status(), "add predicate");
      }
    }
  }
  const auto source = static_cast<DataSourceId>(
      (state.thread_index() % kSources) + 1);
  Random rng(static_cast<uint64_t>(state.thread_index()) + 1);
  for (auto _ : state) {
    Tuple t({Value::Int(rng.UniformRange(0, 49)), Value::Int(1)});
    std::vector<PredicateMatch> out;
    Check(index->Match(UpdateDescriptor::Insert(source, t), &out), "match");
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete index;
    index = nullptr;
  }
}
BENCHMARK(BM_PredicateIndexMatchStriped)->Threads(1)->Threads(4)->Threads(8);

// --- choke point 3: the sharded trigger cache -------------------------------

// Hot-hit pins from N threads. A hit takes the shard's *read* lock and
// sets an atomic reference bit — no LRU list splice, so concurrent pins
// of hot triggers serialize on nothing.
void BM_TriggerCachePinHot(benchmark::State& state) {
  static TriggerCache* cache = nullptr;
  constexpr int kHot = 64;
  if (state.thread_index() == 0) {
    cache = new TriggerCache(
        16384,
        [](TriggerId id) -> Result<TriggerHandle> {
          auto t = std::make_shared<TriggerRuntime>();
          t->id = id;
          return TriggerHandle(std::move(t));
        },
        /*num_shards=*/16);
    for (TriggerId id = 1; id <= kHot; ++id) {
      Check(cache->Pin(id).status(), "warm");
    }
  }
  Random rng(static_cast<uint64_t>(state.thread_index()) + 3);
  for (auto _ : state) {
    auto h = cache->Pin(static_cast<TriggerId>(rng.UniformRange(1, kHot)));
    if (!h.ok()) std::abort();
    benchmark::DoNotOptimize(h->get());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete cache;
    cache = nullptr;
  }
}
BENCHMARK(BM_TriggerCachePinHot)->Threads(1)->Threads(4)->Threads(8);

// --- --smoke: the acceptance bound, checked -----------------------------------

/// One timed round at a given driver count; returns tokens per second.
double SmokeRound(uint32_t num_drivers, int tokens) {
  // Per-token tasks, as in BM_DriverScalingTokens: the bound asserts
  // driver overlap of blocking deliveries, so the fixture picks the
  // batch width that regime calls for.
  ScalingFixture fx(num_drivers, /*token_batch_width=*/1);
  // Warm the caches and the trigger pins outside the timed region.
  fx.RunRound(/*tokens=*/32, /*batch_size=*/32);
  auto start = std::chrono::steady_clock::now();
  fx.RunRound(tokens, /*batch_size=*/64);
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return tokens / elapsed.count();
}

int RunSmoke() {
  constexpr int kTokens = 384;
  double one = SmokeRound(1, kTokens);
  double eight = SmokeRound(8, kTokens);
  double speedup = eight / one;
  std::printf(
      "bench_scaling --smoke: 1 driver %.0f tokens/s, 8 drivers %.0f "
      "tokens/s, speedup %.2fx\n",
      one, eight, speedup);
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "bench_scaling --smoke FAILED: 8-driver speedup %.2fx < "
                 "3x acceptance bound\n",
                 speedup);
    return 1;
  }
  std::printf("bench_scaling --smoke OK: speedup %.2fx >= 3x\n", speedup);
  return 0;
}

}  // namespace
}  // namespace tman::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      return tman::bench::RunSmoke();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
