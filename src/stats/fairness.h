// Fairness metrics over per-job outcomes.
//
// The paper rejects Dyn-Aff-NoPri because its response times relative to
// Equipartition are "extremely variable" across jobs (Figure 6). Jain's
// fairness index quantifies that variability.

#ifndef SRC_STATS_FAIRNESS_H_
#define SRC_STATS_FAIRNESS_H_

#include <vector>

namespace affsched {

// Jain's fairness index: (sum x)^2 / (n * sum x^2). 1.0 = perfectly equal;
// 1/n = one job gets everything. Inputs must be non-negative; returns 1.0
// for empty input.
double JainFairnessIndex(const std::vector<double>& values);

}  // namespace affsched

#endif  // SRC_STATS_FAIRNESS_H_
