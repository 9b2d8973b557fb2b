// Online summary statistics and Student-t confidence intervals.
//
// The paper replicates each scheduling experiment until the 95% confidence
// interval of mean response time is within 1% of the point estimate;
// ReplicationFolder (src/measure/experiment.h) applies that rule with these
// intervals.

#ifndef SRC_STATS_SUMMARY_H_
#define SRC_STATS_SUMMARY_H_

#include <cstddef>
#include <limits>

namespace affsched {

// Welford online accumulator for mean and variance.
class Summary {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return mean_; }
  double min() const { return min_; }
  double max() const { return max_; }

  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

  // Half-width of the confidence interval on the mean at the given confidence
  // level (supported levels: 0.90, 0.95, 0.99). Returns +inf with fewer than
  // two samples.
  double ConfidenceHalfWidth(double level = 0.95) const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Two-sided Student-t critical value for the given degrees of freedom and
// confidence level, via a rational approximation of the inverse CDF accurate
// to ~1e-4 — ample for replication stopping rules.
double StudentTCritical(size_t degrees_of_freedom, double level);

}  // namespace affsched

#endif  // SRC_STATS_SUMMARY_H_
