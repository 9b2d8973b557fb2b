// A job: one running instance of an application, with its thread dependence
// graph state, ready queue, and response-time accounting.

#ifndef SRC_WORKLOAD_JOB_H_
#define SRC_WORKLOAD_JOB_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/topology/topology.h"
#include "src/workload/app_profile.h"
#include "src/workload/thread_graph.h"

namespace affsched {

using JobId = uint32_t;
inline constexpr JobId kInvalidJobId = UINT32_MAX;

// A schedulable piece of a user-level thread: the graph node plus the work
// still to do (threads may be preempted part-way and resumed later, possibly
// by a different worker).
struct ThreadRef {
  size_t node = 0;
  SimDuration remaining = 0;
};

// The components of job response time tracked by the simulator — the terms of
// the paper's equation (1), plus the raw material for equation (2).
struct JobStats {
  SimTime arrival = 0;
  SimTime completion = -1;

  // Time spent in the admission queue before entering service (open-system
  // runs; always 0 for closed runs, where jobs enter service at arrival).
  // Queue wait is *not* part of ResponseSeconds(): response time measures the
  // in-service portion, sojourn = queue_wait_s + ResponseSeconds().
  double queue_wait_s = 0.0;

  // Processor-seconds of useful computation executed (base-machine units).
  double useful_work_s = 0.0;
  // Seconds stalled on reload (affinity) misses — the cache penalty of
  // reallocation.
  double reload_stall_s = 0.0;
  // Seconds stalled on the application's own steady-state misses (folded into
  // `work` in the paper's model, tracked separately here).
  double steady_stall_s = 0.0;
  // Seconds of kernel reallocation path length charged to this job.
  double switch_s = 0.0;
  // Processor-seconds held while the job had no thread to run there.
  double waste_s = 0.0;
  // Integral of (processors held) over time, in processor-seconds.
  double alloc_integral_s = 0.0;

  // Task dispatches onto a processor the task was not already running on.
  uint64_t reallocations = 0;
  // Of those, dispatches where the task's last processor matched.
  uint64_t affinity_dispatches = 0;

  // Reallocations by migration distance tier (src/topology), indexed by
  // tier: how far from its previous processor each dispatch landed. First
  // placements (no previous processor) count in `reallocations` only. On a
  // flat machine every move is "same_cluster" — the tiers only differentiate
  // costs on hierarchical topologies.
  uint64_t migrations[kNumDistanceTiers] = {};

  // Reload-cost attribution on hierarchical topologies: the portion of
  // reload_stall_s served by the cluster LLC vs fetched across the node
  // interconnect (both zero on flat machines).
  double reload_llc_s = 0.0;
  double reload_remote_s = 0.0;

  // Multi-queue (MQMS) policies only: times this job was pulled off another
  // processor's queue, indexed by the distance tier the steal crossed, plus
  // periodic load-balance migrations. All zero under the centralized
  // policies; tier 0 is a local-queue dispatch, never a steal, so steals[0]
  // stays 0.
  uint64_t steals[kNumDistanceTiers] = {};
  uint64_t balance_migrations = 0;

  // Real-time accounting (deadline-bearing profiles only; see RtParams).
  // deadline_misses is 0 or 1 per run — a job misses its own deadline at most
  // once — but aggregates to a miss *rate* across replications. tardiness_s
  // is completion minus deadline when positive. worst_reload_s is the largest
  // single-chunk reload stall the job ever observed: the quantity cache
  // partitioning exists to bound.
  uint64_t deadline_misses = 0;
  double tardiness_s = 0.0;
  double worst_reload_s = 0.0;

  double ResponseSeconds() const {
    AFF_CHECK_MSG(completion >= 0, "job has not completed");
    return ToSeconds(completion - arrival);
  }

  // Queue wait plus in-service response: the open-system end-to-end latency.
  double SojournSeconds() const { return queue_wait_s + ResponseSeconds(); }

  double AverageAllocation() const {
    const double rt = ResponseSeconds();
    return rt > 0.0 ? alloc_integral_s / rt : 0.0;
  }

  double AffinityFraction() const {
    return reallocations > 0
               ? static_cast<double>(affinity_dispatches) / static_cast<double>(reallocations)
               : 0.0;
  }

  // Share of the machine time the job consumed (work, stalls, switches) that
  // went to rebuilding cache context.
  double ReloadTransientFraction() const {
    const double busy = useful_work_s + reload_stall_s + steady_stall_s + switch_s;
    return busy > 0.0 ? reload_stall_s / busy : 0.0;
  }

  // Adds every additive term of `other` into this one and keeps the larger
  // worst_reload_s: the totals over jobs, or over replications. arrival,
  // completion and queue_wait_s are instants of one run and stay untouched.
  void Accumulate(const JobStats& other);

  // Divides every additive term by `n`, turning an Accumulate() total over n
  // runs into their mean. Counts truncate through double. worst_reload_s
  // stays the maximum; arrival, completion and queue_wait_s stay untouched.
  void DivideBy(double n);

  bool operator==(const JobStats&) const = default;

  // Mean time between reallocations as seen by one processor (Table 3's
  // "Realloc. interval"): held processor-seconds divided by #reallocations.
  double ReallocationIntervalSeconds() const {
    return reallocations > 0 ? alloc_integral_s / static_cast<double>(reallocations) : 0.0;
  }
};

class Job {
 public:
  Job(JobId id, const AppProfile& profile, std::unique_ptr<ThreadGraph> graph, SimTime arrival);

  JobId id() const { return id_; }
  const std::string& name() const { return profile_.name; }
  const AppProfile& profile() const { return profile_; }
  size_t max_parallelism() const { return profile_.max_parallelism; }

  // --- Thread lifecycle -----------------------------------------------------

  bool HasReadyThread() const { return !ready_.empty(); }
  size_t ReadyCount() const { return ready_.size(); }

  // Pops the next thread to run (FIFO among fresh threads; preempted threads
  // resume first).
  ThreadRef PopReadyThread();

  // Returns a preempted thread to the front of the queue so it resumes before
  // fresh work (it still holds application state).
  void PushPreemptedThread(ThreadRef t);

  // Marks a thread complete; newly-enabled threads join the ready queue.
  // Returns how many became ready.
  size_t CompleteThread(size_t node);

  bool Finished() const { return graph_->Finished(); }

  const ThreadGraph& graph() const { return *graph_; }

  // --- Accounting -----------------------------------------------------------

  JobStats& stats() { return stats_; }
  const JobStats& stats() const { return stats_; }

 private:
  JobId id_;
  const AppProfile& profile_;
  std::unique_ptr<ThreadGraph> graph_;
  std::deque<ThreadRef> ready_;
  JobStats stats_;
};

}  // namespace affsched

#endif  // SRC_WORKLOAD_JOB_H_
