// First-class metrics for the simulator: named counters, gauges, and
// fixed-bucket histograms collected in a MetricsRegistry.
//
// Design constraints, in order:
//   * Zero cost when disabled. Instrumented code holds raw handle pointers
//     that are nullptr when no registry is attached; the per-event cost is
//     one branch. The engine's hot path must not pay for observability it
//     is not using (acceptance: < 2% on bench_sim_microbench).
//   * One producer per number. The engine writes every total JobStats
//     already holds (the paper's response-time terms) from JobStats at the
//     end of the run, durations rounded to whole nanoseconds (exactly
//     representable in a double far beyond any run length); only counts
//     JobStats lacks are streamed as they happen.
//   * Deterministic output. Rendering iterates names in sorted order, so two
//     identical runs produce byte-identical metric dumps a CI bench can diff.
//
// The registry owns its metrics; handles returned by FindOrCreate* stay valid
// for the registry's lifetime (deque storage, no reallocation).

#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace affsched {

// A monotonically increasing total (events, nanoseconds, bus transfers).
class Counter {
 public:
  void Add(double delta = 1.0) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// A point-in-time value (allocation, bus utilisation, queue depth).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// A histogram over fixed bucket upper bounds (last bucket is +inf).
// Bounds are chosen at creation; Observe is O(#buckets) linear scan, which
// beats binary search for the short bucket lists latency metrics use.
class FixedHistogram {
 public:
  explicit FixedHistogram(std::vector<double> bucket_bounds);

  void Observe(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  // Upper bounds, excluding the implicit +inf bucket.
  const std::vector<double>& bounds() const { return bounds_; }
  // counts()[i] is the number of observations <= bounds()[i]; the final entry
  // counts observations above every bound. size() == bounds().size() + 1.
  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Default bucket bounds for microsecond-scale latency histograms: 1 us to
// ~100 ms in roughly 1-2-5 steps.
std::vector<double> DefaultLatencyBucketsUs();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent by name: a second call with the same name returns the same
  // handle. A name registered as one kind must not be re-requested as
  // another (checked).
  Counter* FindOrCreateCounter(const std::string& name);
  Gauge* FindOrCreateGauge(const std::string& name);
  FixedHistogram* FindOrCreateHistogram(const std::string& name,
                                        std::vector<double> bucket_bounds);

  // Lookup without creation; nullptr if absent (or a different kind).
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const FixedHistogram* FindHistogram(const std::string& name) const;

  size_t size() const { return entries_.size(); }

  // Sorted (name, value) pairs for counters and gauges; histograms report
  // "<name>.count", "<name>.sum", and "<name>.mean" pseudo-entries.
  std::vector<std::pair<std::string, double>> Snapshot() const;

  // One "name value" line per Snapshot entry, sorted by name.
  std::string RenderText() const;

  // A flat JSON object {"name": value, ...}, sorted by name. Histograms
  // additionally emit "<name>.buckets" as an array of [bound, count] pairs.
  std::string ToJson() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    FixedHistogram* histogram = nullptr;
  };

  std::map<std::string, Entry> entries_;
  // Stable storage: deques never move elements on growth.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<FixedHistogram> histograms_;
};

}  // namespace affsched

#endif  // SRC_TELEMETRY_METRICS_H_
