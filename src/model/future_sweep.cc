#include "src/model/future_sweep.h"

#include <cmath>

#include "src/common/check.h"

namespace affsched {

PenaltyTable PaperPenaltyTable() {
  PenaltyTable table;
  // Table 1, Q = 400 ms. P^A uses the self-interference column (MAT vs MAT,
  // MVA vs MVA, GRAV vs GRAV).
  table.pna_us = {{"MATRIX", 1679.0}, {"MVA", 2330.0}, {"GRAVITY", 2349.0}};
  table.pa_us = {{"MATRIX", 737.0}, {"MVA", 1061.0}, {"GRAVITY", 1719.0}};
  return table;
}

namespace {

double LookupOrDie(const std::map<std::string, double>& table, const std::string& key) {
  auto it = table.find(key);
  AFF_CHECK_MSG(it != table.end(), "application missing from penalty table");
  return it->second;
}

const ReplicatedResult& FindRun(const SweepResult& grid, PolicyKind policy, int mix_number) {
  const ExperimentResult* experiment = grid.Find(policy, mix_number);
  AFF_CHECK_MSG(experiment != nullptr, "policy or mix missing from the sweep grid");
  return experiment->replicated;
}

}  // namespace

FutureSweepResult FutureSweepFromRuns(const SweepResult& grid, int mix_number,
                                      const PenaltyTable& penalties,
                                      const FutureSweepOptions& options) {
  const ReplicatedResult& equi = FindRun(grid, PolicyKind::kEquipartition, mix_number);
  const size_t num_jobs = equi.app.size();
  AFF_CHECK(num_jobs > 0);
  std::vector<ModelParams> equi_params;
  for (size_t j = 0; j < num_jobs; ++j) {
    equi_params.push_back(ExtractModelParams(equi.mean_stats[j],
                                             LookupOrDie(penalties.pa_us, equi.app[j]),
                                             LookupOrDie(penalties.pna_us, equi.app[j])));
  }

  FutureSweepResult result;
  result.products = options.products;

  for (PolicyKind policy : options.policies) {
    const ReplicatedResult& run = FindRun(grid, policy, mix_number);
    AFF_CHECK(run.app.size() == num_jobs);
    for (size_t j = 0; j < num_jobs; ++j) {
      const ModelParams params = ExtractModelParams(run.mean_stats[j],
                                                    LookupOrDie(penalties.pa_us, run.app[j]),
                                                    LookupOrDie(penalties.pna_us, run.app[j]));
      FutureCurve curve;
      curve.policy = policy;
      curve.app = run.app[j];
      curve.job_index = j;
      for (double product : options.products) {
        const double speed = std::pow(product, options.speed_exponent);
        const double cache = std::pow(product, 1.0 - options.speed_exponent);
        const double rt = FutureResponseTime(params, speed, cache);
        const double rt_equi = FutureResponseTime(equi_params[j], speed, cache);
        AFF_CHECK(rt_equi > 0.0);
        curve.relative_rt.push_back(rt / rt_equi);
      }
      result.curves.push_back(std::move(curve));
    }
  }
  return result;
}

}  // namespace affsched
