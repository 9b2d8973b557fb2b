// OpenSystemDriver: runs the engine as an open queueing system.
//
// The driver owns the open-system control loop around a single Engine run:
// it schedules each planned arrival as an external event, routes it through
// an AdmissionController (admit / FIFO-queue / reject), admits queued jobs
// as departures free capacity, and collects per-job sojourn times — queue
// wait plus in-service response — into quantile-capable histograms.
//
// Determinism: the arrival plan is materialized before the run, each job's
// thread graph is built from a seed derived from (driver seed, plan index),
// and admission order is FIFO. Policies therefore see identical workload
// draws for a given seed (common random numbers) even though their admission
// and completion dynamics differ.
//
// Self-validation: a LittlesLawChecker accumulates both sides of L = lambda*W
// over the full untrimmed window, where the law is an exact identity (every
// admitted job completes; rejected jobs appear on neither side), within
// kLittlesTolerance. Warmup trimming — a fixed fraction of completions, or an
// MSER-style minimal standard-error rule — applies only to the reported
// mean/percentile statistics, never to the Little's-law accounting check.

#ifndef SRC_OPENSYS_DRIVER_H_
#define SRC_OPENSYS_DRIVER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/engine/engine.h"
#include "src/opensys/admission.h"
#include "src/opensys/arrival_process.h"
#include "src/opensys/littles_law.h"
#include "src/sched/factory.h"

namespace affsched {

enum class WarmupRule {
  kFraction,  // trim the first warmup_fraction of completions
  kMser,      // MSER truncation: minimize the standard error of the tail
};

struct OpenSystemOptions {
  EngineOptions engine;

  WarmupRule warmup_rule = WarmupRule::kFraction;
  // For kFraction: fraction of completions (in completion order) excluded
  // from the reported latency statistics. In [0, 1).
  double warmup_fraction = 0.2;
};

// Tolerance for the Little's-law relative error (identity up to float
// rounding, so violations at any visible tolerance indicate a bug).
inline constexpr double kLittlesTolerance = 0.05;

// Per-arrival outcome, indexed like the arrival plan.
struct OpenJobRecord {
  size_t app_index = 0;
  SimTime arrival = 0;     // planned arrival time
  SimTime admitted = -1;   // entered service (-1 if rejected)
  SimTime completion = -1;  // completed (-1 if rejected)
  bool rejected = false;
  double sojourn_s = 0.0;     // queue wait + in-service response
  double queue_wait_s = 0.0;  // admission-queue portion of the sojourn
};

struct OpenSystemResult {
  size_t arrivals = 0;
  size_t admitted = 0;
  size_t rejected = 0;
  size_t completed = 0;  // == admitted: every admitted job runs to completion
  double reject_rate = 0.0;

  // Latency statistics over post-warmup completions (completion order).
  size_t warmup_trimmed = 0;
  double mean_sojourn_s = 0.0;
  double p50_sojourn_s = 0.0;
  double p95_sojourn_s = 0.0;
  double p99_sojourn_s = 0.0;
  double max_sojourn_s = 0.0;
  double mean_queue_wait_s = 0.0;

  // Time-averaged over the full run: admission-queue length and jobs in
  // system (queued + in service).
  double mean_queue_len = 0.0;
  double mean_jobs_in_system = 0.0;

  // Affinity-dispatch fraction aggregated over all completed jobs.
  double affinity_fraction = 0.0;
  double throughput_per_s = 0.0;  // completions / end_time

  LittlesLawResult littles;  // over the full untrimmed window
  SimTime end_time = 0;      // when the system drained

  std::vector<OpenJobRecord> jobs;  // plan order
};

class OpenSystemDriver {
 public:
  // `apps` and `admission` must outlive Run(). Every plan entry's app_index
  // must be < apps.size().
  OpenSystemDriver(const MachineConfig& machine, PolicyKind policy,
                   const std::vector<AppProfile>& apps, std::vector<ArrivalPlanEntry> plan,
                   AdmissionController* admission, uint64_t seed,
                   const OpenSystemOptions& options = {});
  ~OpenSystemDriver();

  OpenSystemDriver(const OpenSystemDriver&) = delete;
  OpenSystemDriver& operator=(const OpenSystemDriver&) = delete;

  // Runs the whole plan to completion. Call at most once.
  OpenSystemResult Run();

  const Engine& engine() const { return *engine_; }

 private:
  friend struct OpenArrivalTick;

  void OnArrival(uint32_t plan_index);
  void OnCompletion(JobId id);
  void Admit(size_t plan_index);
  void RecordQueueChange(SimTime now, int delta);
  uint64_t GraphSeed(size_t plan_index) const;

  std::vector<AppProfile> apps_;
  std::vector<ArrivalPlanEntry> plan_;
  AdmissionController* admission_;
  uint64_t seed_;
  OpenSystemOptions options_;

  std::unique_ptr<Engine> engine_;
  std::vector<OpenJobRecord> records_;
  // Plan index of each admitted job, indexed by JobId: the engine numbers
  // jobs densely in submission order, and every job it runs came from Admit.
  std::vector<size_t> plan_of_job_;
  std::deque<size_t> fifo_;  // queued plan indices, arrival order
  std::vector<size_t> completion_order_;  // plan indices in completion order

  size_t in_service_ = 0;
  size_t queue_len_ = 0;
  double queue_integral_job_s_ = 0.0;
  SimTime last_queue_change_ = 0;

  LittlesLawChecker littles_;
  bool ran_ = false;
};

// MSER truncation point for a completion-ordered sample sequence: the prefix
// length d (searched up to half the sample) minimizing the standard error of
// the tail mean, stddev(x[d..n)) / sqrt(n - d). Returns 0 for fewer than four
// samples. Deterministic; ties break toward the smaller d.
size_t MserTruncationPoint(const std::vector<double>& samples);

}  // namespace affsched

#endif  // SRC_OPENSYS_DRIVER_H_
