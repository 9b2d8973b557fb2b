#include "src/opensys/driver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/runner/cell_seed.h"
#include "src/stats/histogram.h"

namespace affsched {

namespace {

// Coordinate tag separating per-arrival graph seeds from every other seed
// derivation of the same driver seed.
constexpr uint64_t kGraphSeedTag = 0x4A47;  // 'J' << 8 | 'G'

// Bucket width of the sojourn histogram, in seconds.
constexpr double kHistogramBucketS = 0.05;

}  // namespace

// Event-queue callable for one planned arrival: pointer + index, trivially
// copyable as the pooled queue requires.
struct OpenArrivalTick {
  OpenSystemDriver* driver;
  uint32_t plan_index;
  void operator()() const { driver->OnArrival(plan_index); }
};

OpenSystemDriver::OpenSystemDriver(const MachineConfig& machine, PolicyKind policy,
                                   const std::vector<AppProfile>& apps,
                                   std::vector<ArrivalPlanEntry> plan,
                                   AdmissionController* admission, uint64_t seed,
                                   const OpenSystemOptions& options)
    : apps_(apps),
      plan_(std::move(plan)),
      admission_(admission),
      seed_(seed),
      options_(options) {
  AFF_CHECK(admission_ != nullptr);
  AFF_CHECK(!apps_.empty());
  AFF_CHECK(options_.warmup_fraction >= 0.0 && options_.warmup_fraction < 1.0);
  for (size_t i = 0; i < plan_.size(); ++i) {
    AFF_CHECK_MSG(plan_[i].app_index < apps_.size(), "plan entry references unknown app");
    AFF_CHECK_MSG(plan_[i].when >= 0, "arrival time must be non-negative");
    AFF_CHECK_MSG(i == 0 || plan_[i - 1].when <= plan_[i].when, "plan must be time-sorted");
  }
  engine_ = std::make_unique<Engine>(machine, MakePolicy(policy), seed, options.engine);
  plan_of_job_.reserve(plan_.size());
  records_.resize(plan_.size());
  for (size_t i = 0; i < plan_.size(); ++i) {
    records_[i].app_index = plan_[i].app_index;
    records_[i].arrival = plan_[i].when;
  }
}

OpenSystemDriver::~OpenSystemDriver() = default;

uint64_t OpenSystemDriver::GraphSeed(size_t plan_index) const {
  return DeriveSeed(seed_, {kGraphSeedTag, static_cast<uint64_t>(plan_index)});
}

void OpenSystemDriver::RecordQueueChange(SimTime now, int delta) {
  queue_integral_job_s_ +=
      static_cast<double>(queue_len_) * ToSeconds(now - last_queue_change_);
  last_queue_change_ = now;
  if (delta < 0) {
    AFF_CHECK(queue_len_ >= static_cast<size_t>(-delta));
  }
  queue_len_ = static_cast<size_t>(static_cast<int64_t>(queue_len_) + delta);
}

void OpenSystemDriver::Admit(size_t plan_index) {
  const SimTime now = engine_->now();
  records_[plan_index].admitted = now;
  const JobId id =
      engine_->AdmitJob(apps_[plan_[plan_index].app_index], plan_[plan_index].when,
                        GraphSeed(plan_index));
  AFF_CHECK_MSG(id == plan_of_job_.size(), "engine job ids must be dense in admission order");
  plan_of_job_.push_back(plan_index);
  ++in_service_;
}

void OpenSystemDriver::OnArrival(uint32_t plan_index) {
  const SimTime now = engine_->now();
  switch (admission_->OnArrival(in_service_, queue_len_)) {
    case AdmissionVerdict::kAdmit:
      littles_.OnEnter(now);
      Admit(plan_index);
      break;
    case AdmissionVerdict::kQueue:
      littles_.OnEnter(now);
      RecordQueueChange(now, +1);
      fifo_.push_back(plan_index);
      break;
    case AdmissionVerdict::kReject:
      records_[plan_index].rejected = true;
      break;
  }
}

void OpenSystemDriver::OnCompletion(JobId id) {
  const SimTime now = engine_->now();
  AFF_CHECK_MSG(id < plan_of_job_.size(), "completion for a job the driver never admitted");
  const size_t plan_index = plan_of_job_[id];
  OpenJobRecord& rec = records_[plan_index];
  const JobStats& stats = engine_->job_stats(id);
  rec.completion = stats.completion;
  rec.sojourn_s = stats.SojournSeconds();
  rec.queue_wait_s = stats.queue_wait_s;
  completion_order_.push_back(plan_index);
  AFF_CHECK(in_service_ > 0);
  --in_service_;
  littles_.OnLeave(now, rec.sojourn_s);
  // Jobs queue only while the cap is reached, so a departure frees at most
  // one slot: the oldest queued job takes it.
  if (!fifo_.empty() && admission_->CanAdmitQueued(in_service_)) {
    const size_t next = fifo_.front();
    fifo_.pop_front();
    RecordQueueChange(now, -1);
    Admit(next);
  }
}

OpenSystemResult OpenSystemDriver::Run() {
  AFF_CHECK_MSG(!ran_, "OpenSystemDriver::Run may be called at most once");
  ran_ = true;
  engine_->SetCompletionHook([this](JobId id) { OnCompletion(id); });
  for (size_t i = 0; i < plan_.size(); ++i) {
    engine_->ScheduleExternal(plan_[i].when,
                              OpenArrivalTick{this, static_cast<uint32_t>(i)});
  }
  engine_->Run();
  const SimTime t_end = engine_->now();
  AFF_CHECK_MSG(fifo_.empty() && in_service_ == 0, "open system did not drain");

  OpenSystemResult result;
  result.arrivals = plan_.size();
  for (const OpenJobRecord& rec : records_) {
    result.rejected += rec.rejected ? 1 : 0;
  }
  result.admitted = result.arrivals - result.rejected;
  result.completed = completion_order_.size();
  AFF_CHECK(result.completed == result.admitted);
  result.reject_rate = result.arrivals > 0
                           ? static_cast<double>(result.rejected) /
                                 static_cast<double>(result.arrivals)
                           : 0.0;
  result.end_time = t_end;
  result.littles = littles_.Result(t_end, kLittlesTolerance);
  result.mean_jobs_in_system = result.littles.mean_jobs_in_system;

  RecordQueueChange(t_end, 0);  // close the queue-length integral
  result.mean_queue_len =
      t_end > 0 ? queue_integral_job_s_ / ToSeconds(t_end) : 0.0;

  // Warmup trimming (latency statistics only; the Little's-law check above
  // always covers the full window).
  std::vector<double> sojourns;
  sojourns.reserve(completion_order_.size());
  for (size_t plan_index : completion_order_) {
    sojourns.push_back(records_[plan_index].sojourn_s);
  }
  size_t trim = 0;
  if (!sojourns.empty()) {
    trim = options_.warmup_rule == WarmupRule::kMser
               ? MserTruncationPoint(sojourns)
               : static_cast<size_t>(options_.warmup_fraction *
                                     static_cast<double>(sojourns.size()));
    trim = std::min(trim, sojourns.size() - 1);
  }
  result.warmup_trimmed = trim;
  if (!sojourns.empty()) {
    ValueHistogram hist(kHistogramBucketS);
    double queue_wait_sum = 0.0;
    for (size_t k = trim; k < completion_order_.size(); ++k) {
      hist.Add(sojourns[k]);
      queue_wait_sum += records_[completion_order_[k]].queue_wait_s;
    }
    result.mean_sojourn_s = hist.Mean();
    result.p50_sojourn_s = hist.Quantile(0.50);
    result.p95_sojourn_s = hist.Quantile(0.95);
    result.p99_sojourn_s = hist.Quantile(0.99);
    result.max_sojourn_s = hist.Max();
    result.mean_queue_wait_s = queue_wait_sum / static_cast<double>(hist.Count());
  }

  uint64_t reallocations = 0;
  uint64_t affinity_dispatches = 0;
  for (size_t j = 0; j < engine_->job_count(); ++j) {
    const JobStats& stats = engine_->job_stats(static_cast<JobId>(j));
    reallocations += stats.reallocations;
    affinity_dispatches += stats.affinity_dispatches;
  }
  result.affinity_fraction =
      reallocations > 0 ? static_cast<double>(affinity_dispatches) /
                              static_cast<double>(reallocations)
                        : 0.0;
  result.throughput_per_s =
      t_end > 0 ? static_cast<double>(result.completed) / ToSeconds(t_end) : 0.0;
  result.jobs = std::move(records_);
  return result;
}

size_t MserTruncationPoint(const std::vector<double>& samples) {
  const size_t n = samples.size();
  if (n < 4) {
    return 0;
  }
  // Suffix sums make each candidate O(1); the tail must keep at least half
  // the samples so the estimator never deletes the data it is cleaning.
  std::vector<double> suffix_sum(n + 1, 0.0);
  std::vector<double> suffix_sumsq(n + 1, 0.0);
  for (size_t i = n; i-- > 0;) {
    suffix_sum[i] = suffix_sum[i + 1] + samples[i];
    suffix_sumsq[i] = suffix_sumsq[i + 1] + samples[i] * samples[i];
  }
  size_t best_d = 0;
  double best_se = std::numeric_limits<double>::infinity();
  for (size_t d = 0; d <= n / 2; ++d) {
    const double m = static_cast<double>(n - d);
    const double mean = suffix_sum[d] / m;
    const double var = std::max(0.0, suffix_sumsq[d] / m - mean * mean);
    const double se = std::sqrt(var / m);
    if (se < best_se) {
      best_se = se;
      best_d = d;
    }
  }
  return best_d;
}

}  // namespace affsched
