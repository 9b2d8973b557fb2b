#include "src/measure/experiment.h"

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
    const JobStats& x = run.jobs[j].stats;
    result_.response[j].Add(x.ResponseSeconds());
    // Accumulate keeps worst_reload_s a maximum, not an average: the
    // replicated value answers "what is the worst reload this job ever saw
    // across replications". `completion` carries the summed response time.
    accum_[j].Accumulate(x);
    accum_[j].completion += x.completion - x.arrival;
  }
  ++reps_;
}

bool ReplicationFolder::Precise(const ReplicationOptions& options) const {
  for (size_t j = 0; j < num_jobs_; ++j) {
    const Summary& s = result_.response[j];
    if (s.ConfidenceHalfWidth(kReplicationConfidence) > options.relative_precision * s.mean()) {
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
    mean.DivideBy(r);
    mean.arrival = 0;
    mean.completion = static_cast<SimTime>(static_cast<double>(accum_[j].completion) / r);
    result.mean_stats[j] = mean;
  }
  return result;
}

}  // namespace affsched
