// bench_e2e: wall-clock benchmark of TriggerMan's deployed path — remote
// clients over 127.0.0.1 TCP -> TmanServer -> staging / WAL -> drivers ->
// predicate index -> join network -> actions — in one process.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             --reference-rate TOKENS_PER_S [--commit ID] [--tiny]
//             [--perturb-reference]
//
// Each run sets the workload up, then drives it closed-loop (as fast as
// the server's credit window allows) and open-loop (from a 1 ms send
// tick), and checks every raised event against the workload's reference
// model. The work is fixed by the workload's reference rate, its closed-
// loop tokens/s when the benchmark was defined: the closed loop sends
// rate x S/2 tokens, the open loop offers rate/4 tokens/s for S/2
// seconds (untraced, in four alternating pairs of segments, after a
// rate x 0.5 s closed-loop warm-up). A run therefore does the same work
// on every version of the program, and memory figures compare. The open
// loop offers a quarter of the reference rate, not half: on a shared host
// whose speed drifts, half the rate queues in the slow periods and moves
// the median latency by more than half, so the figure would read the
// host. --trace 0 reports the end-to-end metrics; --trace 1 reports
// per-layer metrics from counter deltas and replays. The last line of
// standard output is the JSON result. run.py builds the program and
// supplies --reference-rate and --commit.

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_e2e/common.h"
#include "bench_e2e/harness.h"
#include "bench_e2e/trace.h"

#ifndef TMAN_BENCH_BUILD_TYPE
#define TMAN_BENCH_BUILD_TYPE "unknown"
#endif

namespace tman::e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  double reference_rate = 0;
  std::string commit = "unknown";
  bool tiny = false;
  bool perturb_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--perturb-reference") {
      args->perturb_reference = true;
    } else if (!has_value) {
      return false;
    } else if (flag == "--workload") {
      args->workload = argv[++i];
    } else if (flag == "--seed") {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::atof(argv[++i]);
    } else if (flag == "--trace") {
      args->trace = std::atoi(argv[++i]);
    } else if (flag == "--reference-rate") {
      args->reference_rate = std::atof(argv[++i]);
    } else if (flag == "--commit") {
      args->commit = argv[++i];
    } else {
      return false;
    }
  }
  return have_seed && args->seconds > 0 && args->reference_rate > 0 &&
         (args->trace == 0 || args->trace == 1) &&
         MakeWorkload(args->workload, args->seed, true) != nullptr;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Outcome of checking every round the run sent against the reference.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
};

Verdict Verify(Deployment* d, const LoadGen& gen,
               const std::vector<const LoopStats*>& loops,
               const Counters& before, const Counters& after, bool perturb) {
  Verdict v;
  uint64_t expected_events = 0;
  uint64_t expected_sql = 0;
  uint64_t submit_errors = 0;
  for (const LoopStats* loop : loops) {
    v.attempted += loop->tokens;
    submit_errors += loop->submit_errors;
    const uint64_t round_tokens = loop->rounds > 0 ? loop->tokens / loop->rounds : 0;
    for (uint64_t r = loop->first_round; r < loop->first_round + loop->rounds;
         ++r) {
      RoundExpectation want = gen.expectations()[r];
      if (perturb && r == loops.front()->first_round) ++want.events;
      expected_events += want.events;
      expected_sql += want.sql;
      const FireSink::Totals got = d->sink->RoundTotals(r);
      if (got.events != want.events || got.fingerprint != want.fingerprint) {
        std::fprintf(stderr,
                     "bench_e2e: round %llu: %llu events, expected %llu%s\n",
                     static_cast<unsigned long long>(r),
                     static_cast<unsigned long long>(got.events),
                     static_cast<unsigned long long>(want.events),
                     got.events == want.events ? " (fingerprint differs)"
                                               : "");
        v.failed += round_tokens;
      }
    }
  }
  auto mismatch = [&](const char* what, uint64_t got, uint64_t want) {
    if (got == want) return;
    std::fprintf(stderr, "bench_e2e: %s: %llu, expected %llu\n", what,
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    v.failed += got > want ? got - want : want - got;
  };
  mismatch("tokens acked",
           after.clients.updates_acked - before.clients.updates_acked,
           v.attempted);
  mismatch("tokens processed",
           after.tman.tokens_processed - before.tman.tokens_processed,
           v.attempted);
  mismatch("execSQL actions",
           after.tman.actions.sql_statements -
               before.tman.actions.sql_statements,
           expected_sql);
  mismatch("rule firings", after.tman.rule_firings - before.tman.rule_firings,
           expected_events + expected_sql);
  mismatch("undecodable events", d->sink->bad_events(), 0);
  if (submit_errors > 0) {
    std::fprintf(stderr, "bench_e2e: %llu submit/flush/drain errors\n",
                 static_cast<unsigned long long>(submit_errors));
    v.failed += submit_errors;
  }
  v.failed = std::min(v.failed, v.attempted);
  v.correct = v.failed == 0 && v.attempted > 0;
  return v;
}

/// Whole rounds covering about `tokens` tokens (at least three).
uint64_t RoundsFor(const LoadGen& gen, double tokens) {
  return std::max<uint64_t>(
      3, static_cast<uint64_t>(std::llround(
             tokens / static_cast<double>(gen.round_tokens()))));
}

/// Open-loop phase: rounds sized to `seconds` at `rate`, with first-event
/// stamps for every token. Returns the latency samples in ms.
std::vector<double> RunOpenLoop(Deployment* d, LoadGen* gen, double seconds,
                                double rate, bool traced, LoopStats* stats) {
  const Workload& w = *d->workload;
  const uint64_t rounds = RoundsFor(*gen, rate * seconds);
  const int64_t first_seq = gen->next_seq();
  const size_t n = static_cast<size_t>(rounds * w.seqs_per_round());
  auto fire_ns = std::make_unique<std::atomic<int64_t>[]>(n);
  std::vector<int64_t> sched_ns(n, 0);
  d->sink->ArmLatency(first_seq, static_cast<int64_t>(n), fire_ns.get());
  *stats = gen->RunOpen(rounds, rate, traced, &sched_ns);
  d->sink->ArmLatency(0, 0, nullptr);
  std::vector<double> latency_ms;
  for (size_t i = 0; i < n; ++i) {
    const int64_t fired = fire_ns[i].load(std::memory_order_relaxed);
    if (fired != 0 && sched_ns[i] != 0) {
      latency_ms.push_back(static_cast<double>(fired - sched_ns[i]) / 1e6);
    }
  }
  return latency_ms;
}

/// The median of the p99s of ten consecutive slices of the open loop
/// (samples are in schedule order): a transient stall on a shared host
/// moves a few slices, while a slowdown that recurs moves them all.
double SlicedP99(const std::vector<double>& samples) {
  constexpr size_t kSlices = 10;
  if (samples.size() < kSlices * 100) {
    std::vector<double> all = samples;
    return Percentile(&all, 99);
  }
  std::vector<double> p99s;
  for (size_t k = 0; k < kSlices; ++k) {
    std::vector<double> slice(
        samples.begin() + static_cast<ptrdiff_t>(k * samples.size() / kSlices),
        samples.begin() +
            static_cast<ptrdiff_t>((k + 1) * samples.size() / kSlices));
    p99s.push_back(Percentile(&slice, 99));
  }
  return Percentile(&p99s, 50);
}

void PrintResult(const Args& args, const Verdict& v, const Metrics& metrics,
                 const std::string& extra) {
  std::printf(
      "stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": "
      "%d, \"reference_rate\": %s, \"nproc\": %d, \"cpu_model\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"commit\": %s%s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace,
      JsonNumber(args.reference_rate).c_str(), Nproc(),
      JsonString(CpuModel()).c_str(),
      JsonString(TMAN_BENCH_BUILD_TYPE).c_str(), JsonString(Compiler()).c_str(),
      JsonString(args.commit).c_str(), extra.c_str());
  std::string json = "{\"correct\": ";
  json += v.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(v.attempted);
  json += ", \"failed\": " + std::to_string(v.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Progress on standard error, so a slow phase shows in the run's log.
void Progress(const char* what, Clock::time_point since) {
  std::fprintf(stderr, "bench_e2e: %s %.3f s\n", what, SecondsSince(since));
}

/// Closed/open segment pairs in an untraced run, and its untimed warm-up.
constexpr int kSegments = 4;
constexpr double kWarmupS = 0.5;

/// --trace 0: the end-to-end metrics.
int RunUntraced(const Args& args) {
  // Set up at least three times (cheap set-ups up to eleven) and keep
  // the last deployment; the median is the reported set-up time.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  const Clock::time_point setups_start = Clock::now();
  while (setup_s.size() < 3 ||
         (setup_s.size() < 11 && SecondsSince(setups_start) < 3)) {
    d.reset();
    const Clock::time_point t0 = Clock::now();
    d = SetUp(args.workload, args.seed, args.tiny);
    setup_s.push_back(SecondsSince(t0));
    Progress("setup", t0);
  }
  LoadGen gen(d.get());
  const Counters before = ReadCounters(d.get());
  // The warm-up is checked but not timed. Closed and open segments then
  // alternate, so a change in the host's speed during the run reaches
  // both metrics alike.
  Clock::time_point t0 = Clock::now();
  std::vector<LoopStats> loops(1 + 2 * kSegments);
  loops[0] = gen.RunClosed(RoundsFor(gen, args.reference_rate * kWarmupS),
                           false);
  Progress("warm-up", t0);
  std::vector<const LoopStats*> closed;
  std::vector<double> latency;
  const double segment_s = args.seconds / 2 / kSegments;
  for (int k = 0; k < kSegments; ++k) {
    t0 = Clock::now();
    LoopStats& c = loops[1 + 2 * k];
    c = gen.RunClosed(RoundsFor(gen, args.reference_rate * segment_s), false);
    closed.push_back(&c);
    std::vector<double> samples =
        RunOpenLoop(d.get(), &gen, segment_s, args.reference_rate / 4, false,
                    &loops[2 + 2 * k]);
    latency.insert(latency.end(), samples.begin(), samples.end());
    Progress("closed + open segment", t0);
  }
  const Counters after = ReadCounters(d.get());
  std::vector<const LoopStats*> all;
  for (const LoopStats& loop : loops) all.push_back(&loop);
  const Verdict v =
      Verify(d.get(), gen, all, before, after, args.perturb_reference);
  uint64_t closed_tokens = 0;
  double closed_wall_s = 0;
  for (const LoopStats* c : closed) {
    closed_tokens += c->tokens;
    closed_wall_s += c->wall_s;
  }

  Metrics metrics;
  metrics.push_back({"tokens_per_s", ClosedRate(closed), "1/s"});
  const size_t samples = latency.size();
  // The tail is printed on the stamp line and gated only as a per-layer
  // metric of the traced run: on a shared host it reads host stalls.
  const double p99 = SlicedP99(latency);
  metrics.push_back({"fire_p50_ms", Percentile(&latency, 50), "ms"});
  metrics.push_back({"setup_s", Percentile(&setup_s, 50), "s"});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  metrics.push_back(
      {"ok_frac",
       1.0 - static_cast<double>(v.failed) / static_cast<double>(v.attempted),
       "frac"});
  t0 = Clock::now();
  d.reset();
  Progress("teardown", t0);
  PrintResult(args, v, metrics,
              ", \"fire_samples\": " + std::to_string(samples) +
                  ", \"fire_p99_ms\": " + JsonNumber(p99) +
                  ", \"closed_tokens\": " + std::to_string(closed_tokens) +
                  ", \"closed_wall_s\": " + JsonNumber(closed_wall_s) +
                  ", \"failed_frac\": " +
                  JsonNumber(static_cast<double>(v.failed) /
                             static_cast<double>(v.attempted)));
  return 0;
}

/// --trace 1: per-layer metrics. An untraced closed loop first gives the
/// reference rate for the tracing overhead.
int RunTraced(const Args& args) {
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<Deployment> d = SetUp(args.workload, args.seed, args.tiny);
  Progress("setup", t0);
  t0 = Clock::now();
  LoadGen gen(d.get());
  const Counters start = ReadCounters(d.get());
  const uint64_t half =
      RoundsFor(gen, args.reference_rate * args.seconds / 4);
  LoopStats plain = gen.RunClosed(half, /*traced=*/false);

  const Counters before = ReadCounters(d.get());
  BacklogSampler backlog(d->tman.get());
  LoopStats closed = gen.RunClosed(half, /*traced=*/true);
  LoopStats open;
  std::vector<double> latency =
      RunOpenLoop(d.get(), &gen, args.seconds / 2, args.reference_rate / 4,
                  true, &open);
  backlog.Stop();
  Progress("loops", t0);
  t0 = Clock::now();
  const Counters after = ReadCounters(d.get());
  const Verdict v = Verify(d.get(), gen, {&plain, &closed, &open}, start,
                           after, args.perturb_reference);

  Metrics metrics;
  AppendCounterMetrics(before, after, closed.tokens + open.tokens,
                       {&closed, &open}, backlog, &metrics);
  AppendReplayMetrics(d.get(), gen, before, after, &metrics);
  Progress("replays", t0);
  metrics.push_back({"gen.fire_p99_ms", SlicedP99(latency), "ms"});
  metrics.push_back(
      {"gen.fire_samples", static_cast<double>(latency.size()), "count"});
  metrics.push_back({"trace.overhead_frac",
                     1.0 - closed.tokens_per_s / plain.tokens_per_s, "frac"});
  t0 = Clock::now();
  d.reset();
  Progress("teardown", t0);
  // The serialized token size is the yardstick for WAL bytes per token.
  PrintResult(args, v, metrics,
              ", \"token_bytes\": " +
                  JsonNumber(MeanTokenBytes(gen.last_round())));
  return 0;
}

}  // namespace
}  // namespace tman::e2e

int main(int argc, char** argv) {
  using namespace tman::e2e;
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "bench_e2e: refusing to report from a build without "
               "optimisation (build type %s)\n",
               TMAN_BENCH_BUILD_TYPE);
  return 2;
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--reference-rate TOKENS_PER_S [--commit ID] [--tiny] "
                 "[--perturb-reference]\n",
                 argv[0]);
    return 2;
  }
  return args.trace == 0 ? RunUntraced(args) : RunTraced(args);
}
