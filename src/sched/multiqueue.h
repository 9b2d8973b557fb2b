// The multi-queue (MQMS) scheduler family: per-processor local run queues
// with distance-tier-limited work stealing.
//
// The paper's Section-5 policies are centralized space-sharers: one allocator
// sees every request and every processor. Modern kernels instead schedule
// from per-processor run queues and move work via pull (steal) and push
// (periodic balance) migration — exactly the regime where cache affinity
// matters most, since every steal is a potential cache reload. This family
// re-asks the paper's question in that regime:
//
//   * every job is "homed" on one processor's local queue (least-loaded at
//     arrival); an available processor serves its own queue first,
//   * when the local queue is empty, it steals — but only from queues within
//     `steal_tier` migration distance (src/topology): a sibling sharing the
//     LLC, the cluster, or anywhere on the machine. steal_tier 0 is the
//     no-steal baseline,
//   * victim selection is affinity-aware: among in-range candidates at the
//     nearest tier, steal the job with the smallest estimated reload cost at
//     the thief (SchedView::ReloadCostSeconds — the CacheModel
//     footprint/reload seam the decision trace also scores candidates with),
//   * an optional periodic balance tick re-homes one job from the most- to
//     the least-loaded queue (push migration), affinity-aware the same way.
//
// Starvation note: stealing is restricted on the *pull* side only
// (OnProcessorAvailable). OnRequest — the push side the engine drives while a
// job has unmet demand — may always place on a free processor, nearest-first
// from the job's home. Without this, a no-steal machine could idle a free
// processor forever while a job homed elsewhere starves, which the engine
// (correctly) reports as a stall.

#ifndef SRC_SCHED_MULTIQUEUE_H_
#define SRC_SCHED_MULTIQUEUE_H_

#include <map>

#include "src/sched/policy.h"

namespace affsched {

struct MultiQueueOptions {
  // Maximum distance tier a processor may steal across:
  //   0 — never steal (per-queue baseline; push placement still works)
  //   1 — same cluster only (sibling queues sharing the LLC)
  //   2 — same node (cluster-next)
  //   3 — whole machine (NUMA-last)
  size_t steal_tier = 0;

  std::string PolicyName() const;
};

class MultiQueuePolicy : public Policy {
 public:
  explicit MultiQueuePolicy(const MultiQueueOptions& options) : options_(options) {}

  std::string name() const override { return options_.PolicyName(); }

  PolicyDecision OnJobArrival(const SchedView& view, JobId job) override;
  PolicyDecision OnJobDeparture(const SchedView& view, JobId job) override;
  PolicyDecision OnProcessorAvailable(const SchedView& view, size_t proc) override;
  PolicyDecision OnRequest(const SchedView& view, JobId job) override;
  PolicyDecision OnBalanceTick(const SchedView& view) override;

  bool UsesAffinity() const override { return true; }

  const MultiQueueOptions& options() const { return options_; }
  // The job's home queue (kNoProcessor if it has none yet); test hook.
  size_t HomeOf(JobId job) const;

 private:
  // Homes `job` on the least-loaded queue if it has no home yet, and returns
  // the home processor.
  size_t EnsureHome(const SchedView& view, JobId job);
  // Jobs with unmet demand, best-first by usage priority (arrival order ties).
  std::vector<JobId> RankedRequesters(const SchedView& view) const;
  // Active jobs homed on each processor's queue.
  std::vector<size_t> QueueLoads(const SchedView& view) const;

  MultiQueueOptions options_;
  // Home queue per job. Erased at departure; stolen jobs are re-homed at the
  // thief (pull migration moves the queue entry, not just one dispatch).
  std::map<JobId, size_t> home_;
};

}  // namespace affsched

#endif  // SRC_SCHED_MULTIQUEUE_H_
