// Google-benchmark microbenchmarks of the simulator substrate itself:
// event-queue throughput, cache-model chunk cost, end-to-end simulated
// seconds per wall second, host time per event as the machine grows, and
// whole sweep grids in simulated jobs per wall second. These guard the
// regeneration sweeps' runtimes.
//
// The sweep table's entries feed the jobs/s floors in bench/baseline.json:
// `tools/bench_compare.py --floors-key KEY` gates
// microbench_opensys (BM_Open*), microbench_topology (BM_TopologySweep*),
// microbench_multiqueue (BM_MultiQueue*) and microbench_rt (BM_Rt*).
//
// Exits through a custom main that writes run_manifest.json (build/git
// metadata and the open cells' Little's-law verdict) into the working
// directory, so CI can trace any reported number back to its build. An open
// cell that fails Little's law makes the run exit 1.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/apps/apps.h"
#include "src/cache/exact_cache.h"
#include "src/cache/footprint.h"
#include "src/engine/engine.h"
#include "src/measure/mixes.h"
#include "src/opensys/open_sweep.h"
#include "src/runner/runner.h"
#include "src/runner/sweep.h"
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

// --- Sweep throughput ---------------------------------------------------------
//
// Each entry runs one grid single-threaded (the benchmark measures the
// simulation, not the worker pool) and counts simulated jobs as items.

struct SweepBench {
  const char* name;
  const char* spec;
  bool open;  // an open-system grid (simctl --open) rather than a closed sweep
};

constexpr SweepBench kSweepBenches[] = {
    // Open cells: arrival generation, admission, the engine run and
    // percentile accounting. Moderate-load Poisson; the same load through
    // bursty on/off arrivals (deeper transient queues); near saturation
    // under an MPL cap (queue-then-admit on nearly every arrival); and the
    // whole smoke grid.
    {"BM_OpenLoadPoissonRho800",
     "opensys-smoke;policies=dyn-aff;arrivals=poisson;rhos=0.8;count=60", true},
    {"BM_OpenLoadOnOffRho800",
     "opensys-smoke;policies=dyn-aff;arrivals=onoff;rhos=0.8;count=60", true},
    {"BM_OpenLoadMplCapRho950",
     "opensys-smoke;policies=dyn-aff;arrivals=poisson;rhos=0.95;count=60;mpl-cap=6", true},
    {"BM_OpenSmokeSweep", "opensys-smoke", true},
    // The hierarchical cache: the flat baseline, two clusters sharing LLCs,
    // and four NUMA nodes with the last-node directory and remote fills.
    {"BM_TopologySweepFlat", "smoke;reps=1;mixes=5;policies=dyn-aff", false},
    {"BM_TopologySweepCmp", "smoke;reps=1;mixes=5;policies=dyn-aff;topology=cmp-2x10", false},
    {"BM_TopologySweepNuma", "smoke;reps=1;mixes=5;policies=dyn-aff;topology=numa-4x8", false},
    // Multi-queue dispatch on the mq machine, per steal radius: nosteal
    // prices per-queue dispatch, numa the widest victim scan.
    {"BM_MultiQueueNoSteal", "mq;reps=1;mixes=5;steal=nosteal", false},
    {"BM_MultiQueueStealCluster", "mq;reps=1;mixes=5;steal=cluster", false},
    {"BM_MultiQueueStealNuma", "mq;reps=1;mixes=5;steal=numa", false},
    // The 8-color machine: dyn-aff pays the colored cache alone, the static
    // planners add ComputeStaticAssignment on every arrival and departure,
    // and color-iso the per-slice ejection of disjoint reservations.
    {"BM_RtDynAff", "rt;reps=1;mixes=5;policies=dyn-aff", false},
    {"BM_RtStaticAffinity", "rt;reps=1;mixes=5;policies=rt-static-affinity", false},
    {"BM_RtColorIso", "rt;reps=1;mixes=5;policies=rt-color-iso", false},
};

// Cleared by any measured open cell that fails the built-in Little's-law
// check; main() records it in run_manifest.json.
bool g_littles_ok = true;

[[noreturn]] void DieOnBadSpec(const char* spec, const std::string& error) {
  std::fprintf(stderr, "bench_sim_microbench: bad spec %s: %s\n", spec, error.c_str());
  std::abort();
}

void BM_ClosedSweep(benchmark::State& state, const char* text) {
  SweepSpec spec;
  std::string error;
  if (!ParseSweepSpec(text, &spec, &error)) {
    DieOnBadSpec(text, error);
  }
  SweepRunnerOptions options;
  options.jobs = 1;
  size_t jobs = 0;
  for (auto _ : state) {
    const SweepResult result = SweepRunner(options).Run(spec);
    for (const ExperimentResult& experiment : result.experiments) {
      for (const CellResult& cell : experiment.cells) {
        jobs += cell.run.jobs.size();
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs));
}

void BM_OpenSweep(benchmark::State& state, const char* text) {
  OpenSweepSpec spec;
  std::string error;
  if (!ParseOpenSweepSpec(text, &spec, &error)) {
    DieOnBadSpec(text, error);
  }
  OpenSweepRunnerOptions options;
  options.jobs = 1;
  size_t completed = 0;
  for (auto _ : state) {
    const OpenSweepResult result = OpenSweepRunner(options).Run(spec);
    g_littles_ok = g_littles_ok && result.AllLittlesLawOk();
    for (const OpenCellResult& cell : result.cells) {
      completed += cell.result.completed;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(completed));
}

void RegisterSweepBenches() {
  for (const SweepBench& bench : kSweepBenches) {
    benchmark::RegisterBenchmark(bench.name, bench.open ? BM_OpenSweep : BM_ClosedSweep,
                                 bench.spec)
        ->UseRealTime();
  }
}

}  // namespace
}  // namespace affsched

int main(int argc, char** argv) {
  affsched::RegisterSweepBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  affsched::RunManifest manifest;
  manifest.SetString("tool", "bench_sim_microbench");
  manifest.SetBool("littles_law_ok", affsched::g_littles_ok);
  manifest.WriteFile("run_manifest.json");
  std::printf("wrote run_manifest.json (git %s, littles_law_ok=%s)\n",
              affsched::RunManifest::GitSha(), affsched::g_littles_ok ? "true" : "false");
  return affsched::g_littles_ok ? 0 : 1;
}
