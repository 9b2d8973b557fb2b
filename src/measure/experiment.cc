#include "src/measure/experiment.h"

#include <algorithm>

#include "src/common/check.h"

namespace affsched {

MachineConfig PaperMachineConfig() {
  MachineConfig config;
  config.num_processors = 16;
  return config;
}

RunResult RunOnce(const MachineConfig& machine, PolicyKind policy_kind,
                  const std::vector<AppProfile>& jobs, uint64_t seed,
                  const Engine::Options& options) {
  AFF_CHECK(!jobs.empty());
  Engine engine(machine, MakePolicy(policy_kind), seed, options);
  for (const AppProfile& profile : jobs) {
    engine.SubmitJob(profile, 0);
  }
  RunResult result;
  result.makespan = engine.Run();
  result.events = engine.event_queue_stats().run;
  for (JobId id = 0; id < engine.job_count(); ++id) {
    result.jobs.push_back(JobResult{engine.job_name(id), engine.job_stats(id)});
  }
  return result;
}

ReplicationFolder::ReplicationFolder(size_t num_jobs) : num_jobs_(num_jobs) {
  result_.response.resize(num_jobs_);
  result_.mean_stats.resize(num_jobs_);
  accum_.resize(num_jobs_);
}

void ReplicationFolder::Fold(const RunResult& run) {
  AFF_CHECK(run.jobs.size() == num_jobs_);
  if (reps_ == 0) {
    for (size_t j = 0; j < num_jobs_; ++j) {
      result_.app.push_back(run.jobs[j].app);
    }
  }
  for (size_t j = 0; j < num_jobs_; ++j) {
    result_.response[j].Add(run.jobs[j].stats.ResponseSeconds());
    const JobStats& x = run.jobs[j].stats;
    JobStats& acc = accum_[j];
    acc.useful_work_s += x.useful_work_s;
    acc.reload_stall_s += x.reload_stall_s;
    acc.steady_stall_s += x.steady_stall_s;
    acc.switch_s += x.switch_s;
    acc.waste_s += x.waste_s;
    acc.alloc_integral_s += x.alloc_integral_s;
    acc.reallocations += x.reallocations;
    acc.affinity_dispatches += x.affinity_dispatches;
    acc.migrations_same_core += x.migrations_same_core;
    acc.migrations_same_cluster += x.migrations_same_cluster;
    acc.migrations_same_node += x.migrations_same_node;
    acc.migrations_cross_node += x.migrations_cross_node;
    acc.reload_llc_s += x.reload_llc_s;
    acc.reload_remote_s += x.reload_remote_s;
    acc.steals_same_cluster += x.steals_same_cluster;
    acc.steals_same_node += x.steals_same_node;
    acc.steals_cross_node += x.steals_cross_node;
    acc.balance_migrations += x.balance_migrations;
    acc.deadline_misses += x.deadline_misses;
    acc.tardiness_s += x.tardiness_s;
    // Worst-case-observed, not an average: the replicated value answers
    // "what is the worst reload this job ever saw across replications".
    acc.worst_reload_s = std::max(acc.worst_reload_s, x.worst_reload_s);
    acc.completion += x.completion - x.arrival;
  }
  ++reps_;
}

bool ReplicationFolder::Precise(const ReplicationOptions& options) const {
  for (size_t j = 0; j < num_jobs_; ++j) {
    const Summary& s = result_.response[j];
    if (s.ConfidenceHalfWidth(options.confidence) > options.relative_precision * s.mean()) {
      return false;
    }
  }
  return true;
}

bool ReplicationFolder::Done(const ReplicationOptions& options) const {
  return reps_ >= options.min_replications &&
         (Precise(options) || reps_ >= options.max_replications);
}

ReplicatedResult ReplicationFolder::Finish() const {
  AFF_CHECK_MSG(reps_ > 0, "Finish() before any Fold()");
  ReplicatedResult result = result_;
  result.replications = reps_;
  const double r = static_cast<double>(reps_);
  for (size_t j = 0; j < num_jobs_; ++j) {
    JobStats mean = accum_[j];
    mean.useful_work_s /= r;
    mean.reload_stall_s /= r;
    mean.steady_stall_s /= r;
    mean.switch_s /= r;
    mean.waste_s /= r;
    mean.alloc_integral_s /= r;
    mean.reallocations = static_cast<uint64_t>(static_cast<double>(mean.reallocations) / r);
    mean.affinity_dispatches =
        static_cast<uint64_t>(static_cast<double>(mean.affinity_dispatches) / r);
    mean.migrations_same_core =
        static_cast<uint64_t>(static_cast<double>(mean.migrations_same_core) / r);
    mean.migrations_same_cluster =
        static_cast<uint64_t>(static_cast<double>(mean.migrations_same_cluster) / r);
    mean.migrations_same_node =
        static_cast<uint64_t>(static_cast<double>(mean.migrations_same_node) / r);
    mean.migrations_cross_node =
        static_cast<uint64_t>(static_cast<double>(mean.migrations_cross_node) / r);
    mean.reload_llc_s /= r;
    mean.reload_remote_s /= r;
    mean.steals_same_cluster =
        static_cast<uint64_t>(static_cast<double>(mean.steals_same_cluster) / r);
    mean.steals_same_node =
        static_cast<uint64_t>(static_cast<double>(mean.steals_same_node) / r);
    mean.steals_cross_node =
        static_cast<uint64_t>(static_cast<double>(mean.steals_cross_node) / r);
    mean.balance_migrations =
        static_cast<uint64_t>(static_cast<double>(mean.balance_migrations) / r);
    mean.deadline_misses =
        static_cast<uint64_t>(static_cast<double>(mean.deadline_misses) / r);
    mean.tardiness_s /= r;
    // worst_reload_s stays the max folded above.
    mean.arrival = 0;
    mean.completion = static_cast<SimTime>(static_cast<double>(accum_[j].completion) / r);
    result.mean_stats[j] = mean;
  }
  return result;
}

}  // namespace affsched
