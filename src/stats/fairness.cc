#include "src/stats/fairness.h"

#include "src/common/check.h"

namespace affsched {

double JainFairnessIndex(const std::vector<double>& values) {
  if (values.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : values) {
    AFF_CHECK(x >= 0.0);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace affsched
