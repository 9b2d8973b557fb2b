// The Figures 8-13 extrapolation: takes a workload mix's replicated runs on
// the current-technology simulator (a SweepRunner grid), extracts model
// parameters per job, and sweeps (processor-speed x cache-size) to predict
// response times on future machines, relative to Equipartition.

#ifndef SRC_MODEL_FUTURE_SWEEP_H_
#define SRC_MODEL_FUTURE_SWEEP_H_

#include <map>
#include <string>
#include <vector>

#include "src/model/response_model.h"
#include "src/runner/sweep.h"
#include "src/sched/factory.h"

namespace affsched {

// Per-application per-switch penalties (microseconds) at the rescheduling
// interval relevant to space-sharing reallocation (~400 ms).
struct PenaltyTable {
  std::map<std::string, double> pa_us;   // keyed by application name
  std::map<std::string, double> pna_us;
};

// The paper's Table 1 values at Q = 400 ms (self-interference column for
// P^A), usable when re-measuring via the Section 4 harness is not desired.
PenaltyTable PaperPenaltyTable();

struct FutureCurve {
  PolicyKind policy = PolicyKind::kDynamic;
  std::string app;   // application name of the job this curve describes
  size_t job_index = 0;
  // Relative response time (policy / Equipartition) at each sweep point.
  std::vector<double> relative_rt;
};

struct FutureSweepResult {
  std::vector<double> products;  // processor-speed x cache-size sweep points
  std::vector<FutureCurve> curves;
};

struct FutureSweepOptions {
  // Sweep points for speed x cache product (log scale by default).
  std::vector<double> products = {1, 4, 16, 64, 256, 1024, 4096, 16384};
  // How the product splits between the two factors: speed = product^alpha,
  // cache = product^(1-alpha). The paper observed results depend (to three
  // digits) only on the product; 0.5 splits evenly.
  double speed_exponent = 0.5;
  std::vector<PolicyKind> policies = {PolicyKind::kDynamic, PolicyKind::kDynAff,
                                      PolicyKind::kDynAffDelay};
};

// Evaluates the Figure-7 model across `options.products` for mix
// `mix_number` of `grid`: each of `options.policies` relative to the grid's
// Equipartition experiment on the same mix. Dies if the grid lacks any of
// those experiments.
FutureSweepResult FutureSweepFromRuns(const SweepResult& grid, int mix_number,
                                      const PenaltyTable& penalties,
                                      const FutureSweepOptions& options = {});

}  // namespace affsched

#endif  // SRC_MODEL_FUTURE_SWEEP_H_
