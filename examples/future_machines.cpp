// Example: asking "when will affinity scheduling start to matter on MY
// machine?" — the Section 7 question — in two independent ways:
//
//   1. analytically, with the paper's extended response-time model (Fig. 7),
//   2. by *direct simulation*: the simulator's MachineConfig accepts
//      processor_speed and cache_size_factor, scaling computation linearly,
//      miss service by sqrt(speed), and cache capacity by the factor — the
//      same assumptions the model makes, but with all queueing/contention
//      dynamics simulated rather than modelled.
//
// The paper could only extrapolate analytically; reproducing both paths and
// comparing them is this library's value-add.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/future_machines

#include <cmath>
#include <cstdio>

#include "src/apps/apps.h"
#include "src/common/check.h"
#include "src/common/table.h"
#include "src/measure/experiment.h"
#include "src/model/future_sweep.h"
#include "src/runner/runner.h"

using namespace affsched;

namespace {

double MeanRelativeRt(const MachineConfig& machine, PolicyKind kind,
                      const std::vector<AppProfile>& jobs, uint64_t seed) {
  const RunResult equi = RunOnce(machine, PolicyKind::kEquipartition, jobs, seed);
  const RunResult run = RunOnce(machine, kind, jobs, seed);
  double acc = 0.0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    acc += run.jobs[j].stats.ResponseSeconds() / equi.jobs[j].stats.ResponseSeconds();
  }
  return acc / static_cast<double>(jobs.size());
}

}  // namespace

int main() {
  const std::vector<AppProfile> apps = DefaultProfiles();
  const WorkloadMix mix{.number = 5, .mva = 0, .matrix = 1, .gravity = 1};
  const std::vector<AppProfile> jobs = mix.Expand(apps);

  std::printf("Workload #5 (1 MATRIX + 1 GRAVITY), Dynamic vs Equipartition,\n");
  std::printf("as the speed x cache product grows:\n\n");

  // Path 1: the analytic model, parameterised from two replications of the
  // mix on today's machine.
  SweepSpec spec;
  std::string error;
  AFF_CHECK_MSG(ParseSweepSpec("fig5;policies=equi,dynamic;mixes=5;reps=2;seed=42", &spec, &error),
                error.c_str());
  FutureSweepOptions options;
  options.products = {1, 16, 256, 4096};
  options.policies = {PolicyKind::kDynamic};
  const FutureSweepResult model =
      FutureSweepFromRuns(SweepRunner().Run(spec), mix.number, PaperPenaltyTable(), options);

  // Path 2: direct simulation of the future machine.
  TextTable table;
  table.SetHeader({"speed x cache", "model (mean rel. RT)", "simulated (mean rel. RT)"});
  for (size_t i = 0; i < options.products.size(); ++i) {
    const double product = options.products[i];
    double model_mean = 0.0;
    size_t count = 0;
    for (const FutureCurve& curve : model.curves) {
      model_mean += curve.relative_rt[i];
      ++count;
    }
    model_mean /= static_cast<double>(count);

    MachineConfig future = PaperMachineConfig();
    future.processor_speed = std::sqrt(product);
    future.cache_size_factor = std::sqrt(product);
    const double simulated = MeanRelativeRt(future, PolicyKind::kDynamic, jobs, 42);

    table.AddRow({FormatDouble(product, 0), FormatDouble(model_mean, 3),
                  FormatDouble(simulated, 3)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Both paths should agree on the trend: oblivious Dynamic loses ground\n"
      "as machines get faster and caches larger, because each reallocation's\n"
      "cache penalty shrinks only as sqrt(speed) while computation shrinks\n"
      "linearly.\n");
  return 0;
}
