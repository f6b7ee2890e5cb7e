// The in-memory task queue's push/pop round trip: the floor cost of
// staging one task. The durable side of §3's delivery trade (the WAL as
// the persistent update queue) is measured end to end by bench_ingest's
// BM_DurableLoopbackIngest against BM_LoopbackIngest (EXPERIMENTS.md E6).

#include "bench/bench_common.h"

#include "runtime/task_queue.h"

namespace tman::bench {
namespace {

void BM_MemoryQueuePushPop(benchmark::State& state) {
  TaskQueue queue;
  for (auto _ : state) {
    Task task;
    task.kind = TaskKind::kProcessToken;
    task.work = [] { return Status::OK(); };
    queue.Push(std::move(task));
    Task out;
    queue.TryPop(&out);
    queue.MarkDone();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MemoryQueuePushPop)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tman::bench

BENCHMARK_MAIN();
