// Regenerates Figures 8-13: response times of the dynamic policies relative
// to Equipartition on future machines, per workload mix, as the product of
// processor-speed and cache-size grows.
//
// Method (Section 7): run each mix on the current-technology simulator,
// extract the response-time-model parameters per job (work, waste,
// #reallocations, %affinity, average allocation), combine with per-switch
// penalties P^A / P^NA (Table 1 values at Q = 400 ms), and evaluate the
// extended model of Figure 7 across the sweep.
//
// Shape to reproduce:
//   * the best dynamic policy stays at or below Equipartition everywhere
//     (any crossover is far in the future);
//   * Dynamic (oblivious) degrades relative to Dyn-Aff as the product grows
//     (visible most clearly for workload 1);
//   * Dyn-Aff-Delay separates from Dyn-Aff at high products (workload 5).
//
// All current-technology simulations — the expensive part — run as one grid
// on the parallel sweep runner; the model extrapolation and the crossover
// table below both reuse those results instead of re-simulating.

#include <cstdio>

#include "src/apps/apps.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/model/crossover.h"
#include "src/model/future_sweep.h"
#include "src/runner/runner.h"
#include "src/runner/sweep.h"

using namespace affsched;

int main(int argc, char** argv) {
  FlagSet flags("Regenerates Figures 8-13 of Vaswani & Zahorjan 1991.");
  flags.AddInt("seed", 8000, "root random seed (per-cell seeds are derived)");
  flags.AddInt("jobs", 0, "worker threads (0 = hardware concurrency)");
  flags.AddString("out", "", "write sweep results JSON here");
  if (!flags.Parse(argc, argv)) {
    std::printf("%s\n", flags.help_requested() ? flags.Help().c_str() : flags.error().c_str());
    return flags.help_requested() ? 0 : 1;
  }

  const PenaltyTable penalties = PaperPenaltyTable();
  FutureSweepOptions options;
  options.products = {1, 4, 16, 64, 256, 1024, 4096, 16384};

  SweepSpec spec = FutureSpec();
  spec.root_seed = static_cast<uint64_t>(flags.GetInt("seed"));

  SweepRunnerOptions runner_options;
  runner_options.jobs = static_cast<size_t>(flags.GetInt("jobs"));
  SweepRunner runner(runner_options);
  const SweepResult grid = runner.Run(spec);

  std::printf("=== Figures 8-13: relative response times on future machines ===\n");
  std::printf("(X axis: processor-speed x cache-size product; values are\n");
  std::printf(" policy RT / Equipartition RT from the Figure-7 model)\n");
  std::printf("(current-technology grid: %zu experiments in %.2fs wall)\n\n",
              grid.experiments.size(), grid.wall_seconds);

  for (const WorkloadMix& mix : spec.mixes) {
    std::printf("--- Figure %d: workload %s ---\n", 7 + mix.number, mix.Label().c_str());
    const FutureSweepResult result = FutureSweepFromRuns(grid, mix.number, penalties, options);

    TextTable table;
    std::vector<std::string> header = {"policy", "job"};
    for (double p : result.products) {
      header.push_back("x" + std::to_string(static_cast<long>(p)));
    }
    table.SetHeader(header);
    for (const FutureCurve& curve : result.curves) {
      std::vector<std::string> row = {PolicyKindName(curve.policy),
                                      curve.app + " (job " + std::to_string(curve.job_index) + ")"};
      for (double r : curve.relative_rt) {
        row.push_back(FormatDouble(r, 3));
      }
      table.AddRow(row);
    }
    std::printf("%s\n", table.Render().c_str());
  }

  // Crossover quantification: the product at which each policy's model curve
  // reaches Equipartition (the paper: "the crossover point is quite far in
  // the future"). Reuses the grid's replicated results directly.
  std::printf("--- crossover products (policy RT reaches Equipartition RT) ---\n");
  TextTable crossover_table;
  crossover_table.SetHeader({"mix", "policy", "job", "crossover product"});
  for (const WorkloadMix& mix : spec.mixes) {
    const ReplicatedResult& equi =
        grid.Find(PolicyKind::kEquipartition, mix.number)->replicated;
    for (PolicyKind policy : options.policies) {
      const ReplicatedResult& run = grid.Find(policy, mix.number)->replicated;
      for (size_t j = 0; j < run.app.size(); ++j) {
        const ModelParams params = ExtractModelParams(run.mean_stats[j],
                                                      penalties.pa_us.at(run.app[j]),
                                                      penalties.pna_us.at(run.app[j]));
        const ModelParams equi_params = ExtractModelParams(equi.mean_stats[j],
                                                           penalties.pa_us.at(equi.app[j]),
                                                           penalties.pna_us.at(equi.app[j]));
        const double crossover = CrossoverProduct(params, equi_params, 1e9);
        std::string label;
        if (crossover < 0.0) {
          label = "never (within 1e9)";
        } else if (crossover <= 1.0) {
          label = "<= 1 (already behind)";
        } else {
          label = FormatDouble(crossover, 0);
        }
        crossover_table.AddRow({mix.Label(), PolicyKindName(policy), run.app[j], label});
      }
    }
  }
  std::printf("%s\n", crossover_table.Render().c_str());

  std::printf(
      "Shape checks vs the paper: Dynamic's curves rise with the product\n"
      "while Dyn-Aff / Dyn-Aff-Delay stay flat or rise much more slowly; the\n"
      "dynamic family remains at or below Equipartition until far-future\n"
      "machines (crossovers orders of magnitude beyond current technology).\n");

  if (!flags.GetString("out").empty()) {
    if (!grid.WriteJsonFile(flags.GetString("out"))) {
      std::printf("failed to write %s\n", flags.GetString("out").c_str());
      return 1;
    }
    std::printf("wrote sweep results to %s\n", flags.GetString("out").c_str());
  }
  return 0;
}
