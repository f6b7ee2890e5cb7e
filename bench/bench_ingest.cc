// Remote ingestion (Figure 1's data source connections made remote):
// updates flow data source -> wire protocol -> TmanServer -> task queue
// -> drivers. Measures the framed-protocol overhead against in-process
// SubmitUpdate, how ingest throughput scales with concurrent remote
// writers, and the raw encode/decode cost of an update batch frame.
//
// `bench_ingest --smoke` runs a fixed-size loopback ingest and verifies
// the exactly-once count instead of benchmarking; CI uses it as a cheap
// end-to-end check of the whole remote path (~2s).

#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "core/trigger_manager.h"
#include "ipc/loopback.h"
#include "ipc/remote_client.h"
#include "ipc/server.h"
#include "ipc/socket_transport.h"
#include "ipc/wire_format.h"

namespace tman::bench {
namespace {

constexpr int kSymbols = 64;
constexpr int kTriggers = 100;

/// TriggerManager + TmanServer over a loopback or TCP listener.
struct IngestFixture {
  Database db;
  std::unique_ptr<TriggerManager> tman;
  std::unique_ptr<TmanServer> server;
  LoopbackListener* loopback = nullptr;  // owned by server
  uint16_t tcp_port = 0;
  DataSourceId ds = 0;

  enum class Mode { kLoopback, kTcp };

  explicit IngestFixture(Mode mode, uint32_t max_queue_depth = 4096,
                         bool durable = false) {
    TriggerManagerOptions options;
    options.durable_wal = durable;
    options.driver_config.num_drivers = 2;
    options.driver_config.period = std::chrono::milliseconds(2);
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
    Check(tman->Start(), "start");

    std::unique_ptr<Listener> listener;
    if (mode == Mode::kLoopback) {
      auto lb = std::make_unique<LoopbackListener>();
      loopback = lb.get();
      listener = std::move(lb);
    } else {
      auto tl = Check(TcpListener::Bind("127.0.0.1", 0), "bind");
      tcp_port = tl->port();
      listener = std::move(tl);
    }
    TmanServerOptions so;
    so.max_queue_depth = max_queue_depth;
    server = std::make_unique<TmanServer>(tman.get(), std::move(listener), so);
    Check(server->Start(), "server start");
  }

  ~IngestFixture() {
    server->Stop();
    tman->Stop();
  }

  RemoteClientOptions ClientOptions(const std::string& name) {
    RemoteClientOptions co;
    co.client_name = name;
    if (loopback != nullptr) {
      LoopbackListener* lb = loopback;
      co.connector = [lb] { return lb->Connect(); };
    } else {
      uint16_t port = tcp_port;
      co.connector = [port] { return TcpConnect("127.0.0.1", port); };
    }
    return co;
  }

  /// `clients` writers, each submitting `updates_each` ticks, then
  /// draining client acks and the task queue. Returns total updates.
  int64_t RunRound(int clients, int updates_each) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([this, c, updates_each] {
        RemoteClient client(ClientOptions("bench-src-" + std::to_string(c)));
        Check(client.Connect(), "connect");
        Random rng(100 + c);
        for (int i = 0; i < updates_each; ++i) {
          Check(client.SubmitUpdate(QuoteTick(&rng, kSymbols, ds)), "submit");
        }
        Check(client.Drain(), "drain");
        client.Close();
      });
    }
    for (auto& t : threads) t.join();
    tman->Drain();
    return static_cast<int64_t>(clients) * updates_each;
  }
};

// In-process baseline: the same updates through SubmitUpdate directly.
// The gap to BM_LoopbackIngest is the cost of the wire protocol.
void BM_InProcessIngest(benchmark::State& state) {
  IngestFixture fx(IngestFixture::Mode::kLoopback);
  Random rng(7);
  const int kPerIter = 2000;
  for (auto _ : state) {
    for (int i = 0; i < kPerIter; ++i) {
      Check(fx.tman->SubmitUpdate(QuoteTick(&rng, kSymbols, fx.ds)), "submit");
    }
    fx.tman->Drain();
  }
  state.SetItemsProcessed(state.iterations() * kPerIter);
}
BENCHMARK(BM_InProcessIngest)->Unit(benchmark::kMillisecond);

// Remote ingest over the in-memory transport, scaling writer count.
void BM_LoopbackIngest(benchmark::State& state) {
  IngestFixture fx(IngestFixture::Mode::kLoopback);
  const int clients = static_cast<int>(state.range(0));
  const int kPerClient = 2000 / clients;
  int64_t total = 0;
  for (auto _ : state) {
    total += fx.RunRound(clients, kPerClient);
  }
  state.SetItemsProcessed(total);
  state.counters["clients"] = clients;
}
BENCHMARK(BM_LoopbackIngest)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The same loopback ingest with the write-ahead log on: every acked
// batch is group-committed before the ack. The gap to BM_LoopbackIngest
// is the price of durability.
void BM_DurableLoopbackIngest(benchmark::State& state) {
  IngestFixture fx(IngestFixture::Mode::kLoopback, /*max_queue_depth=*/4096,
                   /*durable=*/true);
  const int clients = static_cast<int>(state.range(0));
  const int kPerClient = 2000 / clients;
  int64_t total = 0;
  for (auto _ : state) {
    total += fx.RunRound(clients, kPerClient);
  }
  state.SetItemsProcessed(total);
  state.counters["clients"] = clients;
}
BENCHMARK(BM_DurableLoopbackIngest)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Remote ingest over real TCP sockets on localhost.
void BM_TcpIngest(benchmark::State& state) {
  IngestFixture fx(IngestFixture::Mode::kTcp);
  const int clients = static_cast<int>(state.range(0));
  const int kPerClient = 2000 / clients;
  int64_t total = 0;
  for (auto _ : state) {
    total += fx.RunRound(clients, kPerClient);
  }
  state.SetItemsProcessed(total);
  state.counters["clients"] = clients;
}
BENCHMARK(BM_TcpIngest)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Raw wire cost: encode + decode an update batch frame, no I/O.
void BM_UpdateBatchEncodeDecode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Random rng(13);
  UpdateBatchFrame frame;
  frame.first_seq = 1;
  for (int i = 0; i < n; ++i) {
    frame.updates.push_back(QuoteTick(&rng, kSymbols));
  }
  for (auto _ : state) {
    std::string payload;
    frame.Encode(&payload);
    auto decoded = UpdateBatchFrame::Decode(payload);
    if (!decoded.ok()) std::abort();
    benchmark::DoNotOptimize(decoded->updates.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["batch"] = n;
}
BENCHMARK(BM_UpdateBatchEncodeDecode)->Arg(16)->Arg(256);

/// --smoke: one fixed loopback round, verified, no benchmark library.
int RunSmoke() {
  constexpr int kClients = 4;
  constexpr int kPerClient = 2500;
  IngestFixture fx(IngestFixture::Mode::kLoopback, /*max_queue_depth=*/1024);
  int64_t total = fx.RunRound(kClients, kPerClient);
  TmanServerStats stats = fx.server->stats();
  size_t high_water = fx.tman->task_queue().stats().max_size;
  if (stats.updates_applied != static_cast<uint64_t>(total)) {
    std::fprintf(stderr,
                 "bench_ingest --smoke FAILED: applied %llu of %lld updates\n",
                 static_cast<unsigned long long>(stats.updates_applied),
                 static_cast<long long>(total));
    return 1;
  }
  if (high_water > 1024) {
    std::fprintf(stderr,
                 "bench_ingest --smoke FAILED: queue high-water %zu > 1024\n",
                 high_water);
    return 1;
  }
  std::printf(
      "bench_ingest --smoke OK: %lld updates from %d remote clients applied "
      "exactly once (queue high-water %zu <= 1024)\n",
      static_cast<long long>(total), kClients, high_water);

  // Durability overhead: group commit has to keep the durable ingest
  // path within 2x of the un-durable one. Best-of-three after a warm-up
  // round, so a scheduler hiccup on a loaded CI box doesn't fail the
  // assertion.
  constexpr int kOverheadClients = 2;
  constexpr int kOverheadPerClient = 1200;
  auto best_of_three = [](IngestFixture* fx) {
    fx->RunRound(kOverheadClients, 200);  // warm-up
    double best = 1e30;
    for (int trial = 0; trial < 3; ++trial) {
      auto start = std::chrono::steady_clock::now();
      fx->RunRound(kOverheadClients, kOverheadPerClient);
      double s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      best = std::min(best, s);
    }
    return best;
  };
  double base_s = 0;
  double durable_s = 0;
  {
    IngestFixture base(IngestFixture::Mode::kLoopback,
                       /*max_queue_depth=*/1024, /*durable=*/false);
    base_s = best_of_three(&base);
  }
  {
    IngestFixture durable(IngestFixture::Mode::kLoopback,
                          /*max_queue_depth=*/1024, /*durable=*/true);
    durable_s = best_of_three(&durable);
  }
  double ratio = durable_s / base_s;
  if (ratio >= 2.0) {
    std::fprintf(stderr,
                 "bench_ingest --smoke FAILED: durable ingest %.1fms vs "
                 "%.1fms un-durable (%.2fx >= 2x)\n",
                 durable_s * 1e3, base_s * 1e3, ratio);
    return 1;
  }
  std::printf(
      "bench_ingest --smoke OK: group commit holds durable ingest at %.2fx "
      "un-durable (%.1fms vs %.1fms for %d updates)\n",
      ratio, durable_s * 1e3, base_s * 1e3,
      kOverheadClients * kOverheadPerClient);
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
