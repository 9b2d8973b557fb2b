#include "src/cache/cache_model.h"

#include <algorithm>
#include <cmath>

namespace affsched {

double ExpectedMaxResident(double capacity_blocks, size_t ways, double blocks) {
  if (blocks <= 0.0) {
    return 0.0;
  }
  const double sets = capacity_blocks / static_cast<double>(ways);
  const double lambda = blocks / sets;
  // E[min(K, ways)] for K ~ Poisson(lambda):
  //   sum_{k < ways} k p_k + ways * (1 - sum_{k < ways} p_k).
  double p = std::exp(-lambda);  // P(K = 0)
  double cdf = p;
  double partial_mean = 0.0;
  for (size_t k = 1; k < ways; ++k) {
    p *= lambda / static_cast<double>(k);
    cdf += p;
    partial_mean += static_cast<double>(k) * p;
  }
  const double expected = partial_mean + static_cast<double>(ways) * (1.0 - cdf);
  return std::min(blocks, sets * expected);
}

double TouchFraction(double seconds, double tau_s) {
  return tau_s > 0.0 ? 1.0 - std::exp(-seconds / tau_s) : 1.0;
}

}  // namespace affsched
