// The Dynamic policy family (Sections 5.2-5.4).
//
// Dynamic [McCann et al. 91] reallocates processors in response to the
// instantaneous demands of jobs, satisfying requests with (D.1) unallocated
// processors, then (D.2) willing-to-yield processors, then (D.3) equitable
// preemption from the job with the largest allocation. A usage-based priority
// scheme rewards jobs that use few processors.
//
// Options select the paper's variants:
//   Dyn-Aff       — adds affinity rules A.1 (give an available processor back
//                   to the last task that ran there, priority permitting) and
//                   A.2 (honour the requesting job's desired processor).
//   Dyn-Aff-NoPri — A.1 ignores priorities and D.3 is disabled (an artificial
//                   policy used to bound the benefit of affinity scheduling).
//   Dyn-Aff-Delay — jobs hold idle processors for `yield_delay` before
//                   advertising them, trading a little waste for fewer
//                   reallocations.

#ifndef SRC_SCHED_DYNAMIC_H_
#define SRC_SCHED_DYNAMIC_H_

#include "src/sched/policy.h"

namespace affsched {

struct DynamicOptions {
  // Enables affinity rules A.1 / A.2.
  bool use_affinity = false;
  // When false, reproduces Dyn-Aff-NoPri: A.1 always prefers the last task,
  // and the D.3 fairness preemption is disabled.
  bool enforce_priority = true;
  // Dyn-Aff-Delay's hold time for idle processors (0 = immediate yield).
  SimDuration yield_delay = 0;
  // Maximum migration distance tier (SchedView::DistanceTier) at which a
  // task's cache context still counts as affinity for rules A.1/A.2:
  //   0 — exact processor only (the paper's Dyn-Aff; private caches only)
  //   1 — same cluster (Dyn-Aff-Cluster: the shared LLC keeps context warm)
  //   2 — same node (Dyn-Aff-Node: anything beating a remote fetch)
  // At 0 the rules reduce exactly to the flat-machine Dyn-Aff behaviour.
  size_t affinity_tier = 0;

  std::string PolicyName() const;
};

class DynamicPolicy : public Policy {
 public:
  explicit DynamicPolicy(const DynamicOptions& options) : options_(options) {}

  std::string name() const override { return options_.PolicyName(); }

  PolicyDecision OnJobArrival(const SchedView& view, JobId job) override;
  PolicyDecision OnJobDeparture(const SchedView& view, JobId job) override;
  PolicyDecision OnProcessorAvailable(const SchedView& view, size_t proc) override;
  PolicyDecision OnRequest(const SchedView& view, JobId job) override;

  SimDuration YieldDelay() const override { return options_.yield_delay; }
  bool UsesAffinity() const override { return options_.use_affinity; }

  const DynamicOptions& options() const { return options_; }

 private:
  // Requesting jobs (PendingDemand > 0), best-first: by priority when the
  // priority scheme is enforced, else by arrival order.
  std::vector<JobId> RankedRequesters(const SchedView& view) const;

  // Rule D.3: picks a processor to preempt for `job`, or kNoProcessor.
  size_t PickPreemptionVictim(const SchedView& view, JobId job) const;

  DynamicOptions options_;
};

}  // namespace affsched

#endif  // SRC_SCHED_DYNAMIC_H_
