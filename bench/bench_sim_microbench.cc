// Google-benchmark microbenchmarks of the simulator substrate itself:
// event-queue throughput, cache-model chunk cost, end-to-end simulated
// seconds per wall second, and host time per event as the machine grows.
// These guard the regeneration benches' runtimes.
//
// Exits through a custom main that writes run_manifest.json (build/git
// metadata) into the working directory, so CI can trace any reported number
// back to its build.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "src/apps/apps.h"
#include "src/cache/exact_cache.h"
#include "src/cache/footprint.h"
#include "src/engine/engine.h"
#include "src/measure/mixes.h"
#include "src/sched/factory.h"
#include "src/sim/event_queue.h"
#include "src/telemetry/manifest.h"

namespace affsched {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      q.ScheduleAt(i, [&sink] { ++sink; });
    }
    q.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_FootprintChunk(benchmark::State& state) {
  FootprintCache cache(4096.0);
  const WorkingSetParams ws{.blocks = 3000.0, .buildup_tau_s = 0.05,
                            .steady_miss_per_s = 10000.0};
  CacheOwner owner = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.RunChunk(owner, ws, 0.002));
    owner = (owner % 4) + 1;  // rotate owners to keep eviction paths busy
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FootprintChunk);

void BM_ExactCacheAccess(benchmark::State& state) {
  ExactCache cache(CacheGeometry{});
  uint64_t block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(1, block));
    block = (block * 2862933555777941757ULL + 3037000493ULL) % (1 << 14);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactCacheAccess);

void BM_EndToEndSmallMix(benchmark::State& state) {
  MachineConfig machine;
  machine.num_processors = 8;
  double simulated_seconds = 0.0;
  for (auto _ : state) {
    Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 42);
    engine.SubmitJob(MakeSmallMvaProfile());
    engine.SubmitJob(MakeSmallGravityProfile());
    const SimTime end = engine.Run();
    simulated_seconds += ToSeconds(end);
    benchmark::DoNotOptimize(end);
  }
  state.counters["sim_s_per_iter"] = simulated_seconds / static_cast<double>(state.iterations());
}
BENCHMARK(BM_EndToEndSmallMix);

// Host nanoseconds per simulated event for workload mix 6 under Dyn-Aff on
// P processors (the run `simctl --mix=6 --policy=dyn-aff --procs=P
// --engine-stats` times). The run is about 620k events at every P, almost
// all of them 2 ms chunks, so the curve shows how a chunk's cost grows with
// the processor count. One iteration per P: a run takes 0.2-6 s.
void BM_ChunkCostVsProcs(benchmark::State& state) {
  MachineConfig machine;
  machine.num_processors = static_cast<size_t>(state.range(0));
  const std::vector<AppProfile> jobs = PaperMixes()[5].Expand(DefaultProfiles());
  double run_ns = 0.0;
  uint64_t events = 0;
  for (auto _ : state) {
    Engine engine(machine, MakePolicy(PolicyKind::kDynAff), /*seed=*/42);
    for (const AppProfile& job : jobs) {
      engine.SubmitJob(job);
    }
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(engine.Run());
    run_ns += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
                  .count();
    events += engine.event_queue_stats().run;
  }
  state.counters["events"] = static_cast<double>(events);
  state.counters["ns_per_event"] = events > 0 ? run_ns / static_cast<double>(events) : 0.0;
}
BENCHMARK(BM_ChunkCostVsProcs)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace affsched

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  affsched::RunManifest manifest;
  manifest.SetString("tool", "bench_sim_microbench");
  manifest.WriteFile("run_manifest.json");
  std::printf("wrote run_manifest.json (git %s)\n", affsched::RunManifest::GitSha());
  return 0;
}
