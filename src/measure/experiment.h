// One simulation of a workload mix, and the replication rule of Section 6
// of the paper ("enough replications of each experiment so that the 95%
// confidence interval is within 1% of the point estimate of the mean" — we
// default to a slightly looser 2% bound with a replication cap to keep
// regeneration times reasonable; both knobs are configurable). SweepRunner
// (src/runner/runner.h) drives every replicated experiment through
// ReplicationFolder.

#ifndef SRC_MEASURE_EXPERIMENT_H_
#define SRC_MEASURE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/measure/mixes.h"
#include "src/sched/factory.h"
#include "src/stats/summary.h"

namespace affsched {

// The machine the paper's experiments used: 16 of the Symmetry's processors.
MachineConfig PaperMachineConfig();

struct JobResult {
  std::string app;
  JobStats stats;
};

struct RunResult {
  std::vector<JobResult> jobs;  // in submission order
  SimTime makespan = 0;
  // Simulation events executed by the run's EventQueue — a deterministic
  // proxy for how much work the cell was, used by live-progress reporting
  // (events/sec). Not part of any serialized result.
  uint64_t events = 0;
};

// Runs one replication of `jobs` (all arriving at t = 0) under `policy_kind`.
RunResult RunOnce(const MachineConfig& machine, PolicyKind policy_kind,
                  const std::vector<AppProfile>& jobs, uint64_t seed,
                  const Engine::Options& options = Engine::Options());

// The confidence level of every replicated experiment's interval (Section 6).
inline constexpr double kReplicationConfidence = 0.95;

struct ReplicationOptions {
  double relative_precision = 0.02;
  size_t min_replications = 3;
  size_t max_replications = 15;
};

struct ReplicatedResult {
  std::vector<std::string> app;        // per job index
  std::vector<Summary> response;       // per job index, seconds
  std::vector<JobStats> mean_stats;    // per job index, fields averaged
  size_t replications = 0;

  double MeanResponse(size_t job) const { return response[job].mean(); }
};

// Incrementally folds per-replication RunResults into a ReplicatedResult.
// Fold() must be called in replication order, so the aggregate does not
// depend on which worker ran which replication.
class ReplicationFolder {
 public:
  explicit ReplicationFolder(size_t num_jobs);

  // Folds one replication's results (call in replication order).
  void Fold(const RunResult& run);

  size_t replications() const { return reps_; }

  // True once every job's response-time CI meets the precision bound.
  // Meaningless before the first Fold().
  bool Precise(const ReplicationOptions& options) const;

  // True when the stopping rule stops: the minimum replication count has
  // been reached and either the precision bound holds or the cap has been
  // hit.
  bool Done(const ReplicationOptions& options) const;

  // Finalizes per-job means. May be called repeatedly as folds accumulate.
  ReplicatedResult Finish() const;

 private:
  size_t num_jobs_;
  size_t reps_ = 0;
  ReplicatedResult result_;
  std::vector<JobStats> accum_;
};

}  // namespace affsched

#endif  // SRC_MEASURE_EXPERIMENT_H_
