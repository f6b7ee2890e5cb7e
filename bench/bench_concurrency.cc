// Experiments E3 and F5 (§6): concurrency. Token-level concurrency scales
// throughput with the number of driver threads; condition-level
// concurrency (Figure 5's partitioned triggerID sets) splits one token's
// matching across tasks; rule-action concurrency moves fired actions onto
// their own tasks. Shapes matter (more drivers => more throughput until
// the CPU count), not absolute numbers.

#include "bench/bench_common.h"

#include "core/trigger_manager.h"

namespace tman::bench {
namespace {

constexpr int kSymbols = 64;
constexpr int kTriggersPerRun = 2000;
constexpr int kTokensPerBatch = 500;

struct Fixture {
  Database db;
  std::unique_ptr<TriggerManager> tman;
  DataSourceId ds = 0;

  explicit Fixture(TriggerManagerOptions options, int same_condition = 0) {
    // Busy actions make concurrency visible on few cores.
    tman = std::make_unique<TriggerManager>(&db, options);
    Check(tman->Open(), "open");
    ds = Check(tman->DefineStreamSource("quotes", QuoteSchema()),
               "define source");
    Random rng(3);
    for (int i = 0; i < kTriggersPerRun; ++i) {
      std::string cond =
          same_condition > 0
              ? "quotes.symbol = 'SYM0'"  // Figure 5: same condition
              : "quotes.symbol = 'SYM" +
                    std::to_string(rng.Uniform(kSymbols)) + "'";
      std::string cmd = "create trigger t" + std::to_string(i) +
                        " from quotes when " + cond +
                        " and quotes.price >= 0"
                        " do raise event E(quotes.price * 2 + 1)";
      Check(tman->ExecuteCommand(cmd).status(), "create trigger");
    }
  }

  void RunBatch(Random* rng) {
    for (int i = 0; i < kTokensPerBatch; ++i) {
      Check(tman->SubmitUpdate(QuoteTick(rng, kSymbols, ds)), "submit");
    }
    tman->Drain();
  }
};

void BM_TokenLevelConcurrency(benchmark::State& state) {
  TriggerManagerOptions options;
  options.driver_config.num_drivers = static_cast<uint32_t>(state.range(0));
  options.driver_config.period = std::chrono::milliseconds(2);
  Fixture fx(options);
  Check(fx.tman->Start(), "start");
  Random rng(5);
  for (auto _ : state) {
    fx.RunBatch(&rng);
  }
  fx.tman->Stop();
  state.counters["drivers"] = static_cast<double>(state.range(0));
  state.counters["tokens_per_iter"] = kTokensPerBatch;
}
BENCHMARK(BM_TokenLevelConcurrency)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Figure 5: M triggers with the same condition, partitioned round robin
// into P subsets processed as separate tasks.
void BM_ConditionLevelPartitions(benchmark::State& state) {
  TriggerManagerOptions options;
  options.driver_config.num_drivers = 2;
  options.driver_config.period = std::chrono::milliseconds(2);
  options.condition_partitions = static_cast<uint32_t>(state.range(0));
  Fixture fx(options, /*same_condition=*/1);
  Check(fx.tman->Start(), "start");
  Random rng(5);
  for (auto _ : state) {
    // Every token matches all 2000 triggers; partitions split that work.
    Check(fx.tman->SubmitUpdate(UpdateDescriptor::Insert(
              fx.ds, Tuple({Value::String("SYM0"), Value::Float(10),
                            Value::Int(1)}))),
          "submit");
    fx.tman->Drain();
  }
  fx.tman->Stop();
  state.counters["partitions"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ConditionLevelPartitions)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Rule-action concurrency: actions as separate tasks vs inline.
void BM_ActionConcurrency(benchmark::State& state) {
  TriggerManagerOptions options;
  options.driver_config.num_drivers = 2;
  options.driver_config.period = std::chrono::milliseconds(2);
  options.concurrent_actions = state.range(0) != 0;
  Fixture fx(options, /*same_condition=*/1);
  Check(fx.tman->Start(), "start");
  for (auto _ : state) {
    Check(fx.tman->SubmitUpdate(UpdateDescriptor::Insert(
              fx.ds, Tuple({Value::String("SYM0"), Value::Float(10),
                            Value::Int(1)}))),
          "submit");
    fx.tman->Drain();
  }
  fx.tman->Stop();
  state.counters["concurrent_actions"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ActionConcurrency)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tman::bench

BENCHMARK_MAIN();
