#include "bench_e2e/harness.h"

#include <barrier>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>

#include "bench_e2e/common.h"
#include "ipc/socket_transport.h"

namespace tman::e2e {

// ---------------------------------------------------------------------------
// FireSink
// ---------------------------------------------------------------------------

FireSink::FireSink(const Workload* workload) : workload_(workload) {
  // calloc hands back untouched zero pages: only the rounds a run
  // reaches cost resident memory.
  acc_ = static_cast<Acc*>(std::calloc(kSlots * kMaxRounds, sizeof(Acc)));
  if (acc_ == nullptr) {
    std::fprintf(stderr, "bench_e2e: out of memory for round counters\n");
    std::exit(1);
  }
}

FireSink::~FireSink() { std::free(acc_); }

int FireSink::ThreadSlot() {
  thread_local const FireSink* owner = nullptr;
  thread_local int slot = 0;
  if (owner != this) {
    owner = this;
    slot = next_slot_.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  return slot;
}

void FireSink::OnEvent(const Event& event) {
  EventKey key;
  if (!workload_->Decode(event, &key)) {
    bad_events_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (key.token_seq < workload_->seq_base()) return;  // preload
  const uint64_t round = workload_->RoundOf(key.token_seq);
  if (round >= kMaxRounds) {
    bad_events_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Acc& acc = acc_[static_cast<size_t>(ThreadSlot()) * kMaxRounds + round];
  std::atomic_ref<uint64_t>(acc.events).fetch_add(1,
                                                  std::memory_order_relaxed);
  std::atomic_ref<uint64_t>(acc.fingerprint)
      .fetch_add(key.key, std::memory_order_relaxed);

  std::atomic<int64_t>* stamps = fire_ns_.load(std::memory_order_acquire);
  if (stamps == nullptr) return;
  const int64_t index =
      key.token_seq - latency_begin_.load(std::memory_order_relaxed);
  if (index < 0 || index >= latency_n_.load(std::memory_order_relaxed)) {
    return;
  }
  // All firings of one token run in the task that processes it, so the
  // first-stamp test has no competing writer.
  if (stamps[index].load(std::memory_order_relaxed) == 0) {
    stamps[index].store(NowNs(), std::memory_order_relaxed);
  }
}

void FireSink::ArmLatency(int64_t begin, int64_t n,
                          std::atomic<int64_t>* fire_ns) {
  latency_begin_.store(begin, std::memory_order_relaxed);
  latency_n_.store(n, std::memory_order_relaxed);
  fire_ns_.store(fire_ns, std::memory_order_release);
}

FireSink::Totals FireSink::RoundTotals(uint64_t round) const {
  Totals t;
  for (int s = 0; s < kSlots; ++s) {
    Acc& acc = acc_[static_cast<size_t>(s) * kMaxRounds + round];
    t.events +=
        std::atomic_ref<uint64_t>(acc.events).load(std::memory_order_relaxed);
    t.fingerprint += std::atomic_ref<uint64_t>(acc.fingerprint)
                         .load(std::memory_order_relaxed);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

namespace {

/// Memory staging (server_main --memory). Guarded so the benchmark still
/// compiles once the staging option is gone and memory staging is the
/// only non-durable path.
template <typename Options>
void SetMemoryStaging(Options* options) {
  if constexpr (requires { options->persistent_queue; }) {
    options->persistent_queue = false;
  }
}

}  // namespace

Deployment::~Deployment() {
  for (auto& client : clients) client->Close();
  if (server != nullptr) server->Stop();
  if (tman != nullptr) tman->Stop();
}

std::unique_ptr<Deployment> SetUp(const std::string& name, uint64_t seed,
                                  bool tiny) {
  auto d = std::make_unique<Deployment>();
  d->workload = MakeWorkload(name, seed, tiny);
  d->sink = std::make_unique<FireSink>(d->workload.get());
  TriggerManagerOptions options;
  if (d->workload->durable()) {
    options.durable_wal = true;
  } else {
    SetMemoryStaging(&options);
  }
  options.driver_config.num_cpus = kDrivers;
  d->tman = std::make_unique<TriggerManager>(&d->db, options);
  Check(d->tman->Open(), "open");
  Check(d->tman->Start(), "start drivers");
  d->workload->Install(d->tman.get());
  FireSink* sink = d->sink.get();
  d->tman->events().Register("*",
                             [sink](const Event& e) { sink->OnEvent(e); });

  auto listener = CheckResult(TcpListener::Bind("127.0.0.1", 0), "bind");
  const uint16_t port = listener->port();
  d->server = std::make_unique<TmanServer>(d->tman.get(), std::move(listener));
  Check(d->server->Start(), "server start");
  for (int c = 0; c < kClients; ++c) {
    RemoteClientOptions co;
    co.client_name = "gen-" + std::to_string(c);
    co.connector = [port] { return TcpConnect("127.0.0.1", port); };
    d->clients.push_back(std::make_unique<RemoteClient>(co));
    Check(d->clients.back()->Connect(), "client connect");
  }
  return d;
}

// ---------------------------------------------------------------------------
// LoadGen
// ---------------------------------------------------------------------------

namespace {

/// Samples the manager's processed-token count on a fixed period.
class ProcessedSampler {
 public:
  static constexpr auto kPeriod = std::chrono::milliseconds(250);

  explicit ProcessedSampler(TriggerManager* tman)
      : tman_(tman), thread_([this] {
          std::unique_lock<std::mutex> lock(mutex_);
          Clock::time_point next = Clock::now();
          while (!stop_) {
            samples_.push_back({Clock::now(), tman_->stats().tokens_processed});
            next += kPeriod;
            cv_.wait_until(lock, next, [this] { return stop_; });
          }
        }) {}
  ~ProcessedSampler() { Stop(); }
  ProcessedSampler(const ProcessedSampler&) = delete;
  ProcessedSampler& operator=(const ProcessedSampler&) = delete;

  /// Stops sampling; returns the processed-token rate of each window but
  /// the first and the last: the pipeline fills up in the first, and the
  /// backlog may run out in the last.
  std::vector<double> Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    std::vector<double> rates;
    for (size_t i = 1; i < samples_.size(); ++i) {
      const double dt = std::chrono::duration<double>(samples_[i].first -
                                                      samples_[i - 1].first)
                            .count();
      rates.push_back(
          static_cast<double>(samples_[i].second - samples_[i - 1].second) /
          dt);
    }
    if (rates.size() < 2) return {};
    rates.pop_back();
    rates.erase(rates.begin());
    return rates;
  }

 private:
  TriggerManager* tman_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mutex_
  std::vector<std::pair<Clock::time_point, uint64_t>> samples_;
  std::thread thread_;  // last: uses the members above
};

}  // namespace

double ClosedRate(const std::vector<const LoopStats*>& loops) {
  std::vector<double> rates;
  uint64_t tokens = 0;
  double wall_s = 0;
  for (const LoopStats* loop : loops) {
    rates.insert(rates.end(), loop->rates.begin(), loop->rates.end());
    tokens += loop->tokens;
    wall_s += loop->wall_s;
  }
  if (rates.size() >= 3) return Percentile(&rates, 50);
  return wall_s > 0 ? static_cast<double>(tokens) / wall_s : 0;
}

LoadGen::LoadGen(Deployment* deployment) : d_(deployment) {
  next_ = d_->workload->NextRound();
}

int64_t LoadGen::next_seq() const {
  return d_->workload->seq_base() +
         static_cast<int64_t>(expected_.size() *
                              d_->workload->seqs_per_round());
}

uint64_t LoadGen::round_tokens() const {
  uint64_t n = 0;
  for (const auto& phase : next_.phases) n += phase.size();
  return n;
}

LoopStats LoadGen::RunClosed(uint64_t rounds, bool traced) {
  return Run(rounds, 0, traced, nullptr);
}

LoopStats LoadGen::RunOpen(uint64_t rounds, double rate, bool traced,
                           std::vector<int64_t>* sched_ns) {
  return Run(rounds, rate, traced, sched_ns);
}

LoopStats LoadGen::Run(uint64_t rounds, double rate, bool traced,
                       std::vector<int64_t>* sched_ns) {
  LoopStats stats;
  stats.first_round = expected_.size();
  const Workload& workload = *d_->workload;
  const int64_t loop_seq0 = next_seq();
  const bool open = rate > 0;
  const double ns_per_token = open ? 1e9 / rate : 0;

  // The phase both generators work on; written by this thread between
  // barrier phases only.
  struct Job {
    const std::vector<UpdateDescriptor>* tokens = nullptr;
    int64_t start_ns = 0;  // open loop: the phase's schedule origin
    bool exit = false;
  } job;
  struct GenOut {
    std::vector<double> lag_ms;
    std::vector<double> flush_us;
    uint64_t errors = 0;
  } out[kClients];
  std::barrier sync(kClients + 1);

  auto generator = [&](int g) {
    RemoteClient* client = d_->clients[static_cast<size_t>(g)].get();
    const uint64_t batch = RemoteClientOptions().batch_max_updates;
    GenOut& o = out[g];
    auto timed_flush = [&](bool sends) {
      const int64_t t0 = NowNs();
      if (!client->Flush().ok()) ++o.errors;
      if (traced && sends) {
        o.flush_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      }
    };
    for (;;) {
      sync.arrive_and_wait();
      if (job.exit) return;
      const std::vector<UpdateDescriptor>& tokens = *job.tokens;
      size_t j = static_cast<size_t>(g);
      if (!open) {
        uint64_t submitted = 0;
        for (; j < tokens.size(); j += kClients) {
          // Every batch_max_updates-th submit seals a batch and sends it.
          const bool sends = traced && ++submitted % batch == 0;
          const int64_t t0 = sends ? NowNs() : 0;
          if (!client->SubmitUpdate(tokens[j]).ok()) ++o.errors;
          if (sends) {
            o.flush_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
          }
        }
        timed_flush(submitted % batch != 0);
      } else {
        while (j < tokens.size()) {
          // Sleep to the 1 ms tick at or after the next token's due time,
          // then send everything due and flush.
          const int64_t due =
              job.start_ns + std::llround(static_cast<double>(j) * ns_per_token);
          const int64_t tick =
              job.start_ns + (due - job.start_ns + 999999) / 1000000 * 1000000;
          std::this_thread::sleep_until(
              Clock::time_point(std::chrono::nanoseconds(tick)));
          const int64_t now = NowNs();
          o.lag_ms.push_back(static_cast<double>(now - tick) / 1e6);
          for (; j < tokens.size(); j += kClients) {
            const int64_t when =
                job.start_ns +
                std::llround(static_cast<double>(j) * ns_per_token);
            if (when > now) break;
            const int64_t seq = OwnSeq(tokens[j]);
            if (seq >= 0) {
              (*sched_ns)[static_cast<size_t>(seq - loop_seq0)] = when;
            }
            if (!client->SubmitUpdate(tokens[j]).ok()) ++o.errors;
          }
          timed_flush(true);
        }
      }
      sync.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  for (int g = 0; g < kClients; ++g) threads.emplace_back(generator, g);

  auto drain = [&] {
    for (auto& client : d_->clients) {
      const int64_t t0 = NowNs();
      if (!client->Drain().ok()) ++stats.submit_errors;
      if (traced) {
        stats.drain_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      }
    }
    d_->tman->Drain();
  };

  // Closed-loop rate: per round when rounds end in a drain, otherwise
  // from the processed-token count sampled on a fixed period.
  const bool drains = workload.drain_between_phases();
  std::optional<ProcessedSampler> sampler;
  if (!open && !drains) sampler.emplace(d_->tman.get());
  std::vector<double> round_rates;
  const Clock::time_point t0 = Clock::now();
  int64_t phase_start = NowNs();
  rounds = std::min<uint64_t>(rounds, kMaxRounds - expected_.size());
  while (stats.rounds < rounds) {
    const Clock::time_point round_start = Clock::now();
    uint64_t round_tokens = 0;
    last_ = std::move(next_);
    expected_.push_back({last_.events, last_.fingerprint, last_.sql});
    for (size_t p = 0; p < last_.phases.size(); ++p) {
      job.tokens = &last_.phases[p];
      job.start_ns = phase_start;
      sync.arrive_and_wait();  // generators start the phase
      // Generate the next round while this phase is in flight.
      if (p + 1 == last_.phases.size()) next_ = d_->workload->NextRound();
      sync.arrive_and_wait();  // generators flushed the phase
      round_tokens += last_.phases[p].size();
      phase_start += std::llround(
          static_cast<double>(last_.phases[p].size()) * ns_per_token);
      if (drains) {
        drain();
        phase_start = std::max(phase_start, NowNs());
      }
    }
    if (drains) {
      round_rates.push_back(static_cast<double>(round_tokens) /
                            SecondsSince(round_start));
    }
    stats.tokens += round_tokens;
    ++stats.rounds;
  }
  if (!drains) drain();
  stats.wall_s = SecondsSince(t0);
  if (!open) {
    stats.rates = sampler.has_value() ? sampler->Stop() : round_rates;
    stats.tokens_per_s = ClosedRate({&stats});
  }

  job.exit = true;
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  for (const GenOut& o : out) {
    stats.submit_errors += o.errors;
    stats.lag_ms.insert(stats.lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    stats.flush_us.insert(stats.flush_us.end(), o.flush_us.begin(),
                          o.flush_us.end());
  }
  return stats;
}

}  // namespace tman::e2e
