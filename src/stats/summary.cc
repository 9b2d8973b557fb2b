#include "src/stats/summary.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace affsched {

void Summary::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

double Summary::ConfidenceHalfWidth(double level) const {
  if (count_ < 2) {
    return std::numeric_limits<double>::infinity();
  }
  const double t = StudentTCritical(count_ - 1, level);
  return t * stddev() / std::sqrt(static_cast<double>(count_));
}

namespace {

// Acklam's rational approximation to the standard normal inverse CDF.
double NormalInverseCdf(double p) {
  AFF_CHECK(p > 0.0 && p < 1.0);
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  double q;
  double r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > phigh) {
    q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

}  // namespace

double StudentTCritical(size_t degrees_of_freedom, double level) {
  AFF_CHECK(degrees_of_freedom >= 1);
  AFF_CHECK(level > 0.0 && level < 1.0);
  const double p = 1.0 - (1.0 - level) / 2.0;
  const double z = NormalInverseCdf(p);
  const double n = static_cast<double>(degrees_of_freedom);
  // Cornish-Fisher style expansion of the t quantile in terms of the normal
  // quantile; good to a few 1e-4 for n >= 3 and adequate even for n = 1..2
  // given how we use it (stopping rules, not hypothesis tests).
  const double z3 = z * z * z;
  const double z5 = z3 * z * z;
  const double z7 = z5 * z * z;
  double t = z + (z3 + z) / (4.0 * n) + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * n * n) +
             (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / (384.0 * n * n * n);
  // Exact small-df corrections for the common 95% case.
  if (level > 0.94 && level < 0.96) {
    if (degrees_of_freedom == 1) {
      t = 12.706;
    } else if (degrees_of_freedom == 2) {
      t = 4.303;
    }
  }
  return t;
}

}  // namespace affsched
