// Quantile-capable histograms.
//
// WeightedHistogram records parallelism profiles (Figures 2-4 show "% of time
// spent at each level of physical parallelism"): integer buckets, arbitrary
// weights. ValueHistogram records latency-style continuous samples (the
// open-system sojourn and queue-wait distributions) in fixed-width buckets
// that grow on demand, and estimates arbitrary quantiles by linear
// interpolation within a bucket.

#ifndef SRC_STATS_HISTOGRAM_H_
#define SRC_STATS_HISTOGRAM_H_

#include <cstddef>
#include <string>
#include <vector>

namespace affsched {

// Accumulates weight (e.g. simulated time) per integer bucket [0, max_value].
class WeightedHistogram {
 public:
  explicit WeightedHistogram(size_t max_value);

  // Adds `weight` to `value`'s bucket; values above max clamp to the top.
  void Add(size_t value, double weight);

  double TotalWeight() const;

  // Fraction of total weight in the given bucket (0 if no weight recorded).
  double Fraction(size_t value) const;

  // Weighted mean bucket value.
  double Mean() const;

  // Weighted nearest-rank quantile: the smallest bucket value whose
  // cumulative weight reaches q (in [0, 1]) of the total. Bucket values are
  // discrete levels, so no interpolation happens here. 0 if empty.
  size_t Quantile(double q) const;
  // Quantile with q given in percent (Percentile(95) == Quantile(0.95)).
  size_t Percentile(double p) const { return Quantile(p / 100.0); }

  size_t max_value() const { return buckets_.size() - 1; }

  // Renders "level: percent" lines for nonzero buckets, plus the mean —
  // the textual equivalent of the per-application bar charts in Figs. 2-4.
  std::string Render(const std::string& label) const;

 private:
  std::vector<double> buckets_;
};

// Histogram over non-negative continuous values (seconds of sojourn time):
// counts per fixed-width bucket, the bucket array growing as samples demand.
// Quantiles treat each bucket's mass as uniformly spread across the bucket's
// value range and interpolate linearly, then clamp into [Min(), Max()] so
// small samples stay exact at the extremes. Deterministic: identical sample
// sequences produce identical estimates on any platform.
class ValueHistogram {
 public:
  // `bucket_width` > 0, in the sampled unit (e.g. seconds).
  explicit ValueHistogram(double bucket_width);

  // Records one sample (>= 0).
  void Add(double value);

  size_t Count() const { return count_; }
  double Min() const;
  double Max() const;
  double Mean() const;

  // Quantile estimate for q in [0, 1]: mass-interpolated within the bucket
  // where the cumulative count crosses q * Count(). Quantile(0) == Min(),
  // Quantile(1) == Max(). 0 if no samples recorded.
  double Quantile(double q) const;
  // Quantile with q given in percent (Percentile(99) == Quantile(0.99)).
  double Percentile(double p) const { return Quantile(p / 100.0); }

  double bucket_width() const { return width_; }
  size_t num_buckets() const { return buckets_.size(); }

 private:
  double width_;
  std::vector<size_t> buckets_;
  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace affsched

#endif  // SRC_STATS_HISTOGRAM_H_
