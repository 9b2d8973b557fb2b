// The processor-allocation policy interface (the "Minos" role).
//
// The engine (src/engine) owns all machine and job state and consults the
// policy at the decision points Section 5 of the paper describes:
//   * job arrival / departure,
//   * a processor becoming available (freed, or willing-to-yield),
//   * a job requesting additional processors.
// Policies inspect the system through SchedView and answer with processor
// assignments (and, for repartitioning policies like Equipartition, a full
// target allocation). The engine carries out preemptions, context-switch
// costs, and dispatch.

#ifndef SRC_SCHED_POLICY_H_
#define SRC_SCHED_POLICY_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/exact_cache.h"
#include "src/trace/decision_trace.h"
#include "src/workload/job.h"
#include "src/workload/worker.h"

namespace affsched {

// Read-only view of scheduler-relevant state, implemented by the engine.
class SchedView {
 public:
  virtual ~SchedView() = default;

  virtual size_t NumProcessors() const = 0;

  // Jobs currently in the system, in arrival order.
  virtual std::vector<JobId> ActiveJobs() const = 0;

  // Number of processors currently held by `job`.
  virtual size_t Allocation(JobId job) const = 0;

  // Allocation after all committed (pending) reassignments take effect.
  // Policies should reason about this value to avoid double-preempting.
  virtual size_t EffectiveAllocation(JobId job) const = 0;

  virtual size_t MaxParallelism(JobId job) const = 0;

  // Additional processors the job could use right now (ready threads not yet
  // claimed, capped by max parallelism).
  virtual size_t PendingDemand(JobId job) const = 0;

  // Job holding this processor; kInvalidJobId if the processor is free.
  virtual JobId ProcessorJob(size_t proc) const = 0;

  // True if the holding job has flagged the processor as reallocatable.
  virtual bool WillingToYield(size_t proc) const = 0;

  // True if the processor is already committed to move to another job at the
  // next chunk boundary; policies must not re-assign it.
  virtual bool ReassignmentPending(size_t proc) const = 0;

  // Processor history: the most recent task to have run on `proc`.
  virtual CacheOwner LastTaskOn(size_t proc) const = 0;

  // Full per-processor task history, most-recent-first (length T; the paper
  // evaluates T = 1).
  virtual std::vector<CacheOwner> RecentTasksOn(size_t proc) const = 0;

  // True if `task` is not currently active on some processor but belongs to a
  // job with useful work for it.
  virtual bool TaskRunnable(CacheOwner task) const = 0;

  virtual JobId TaskJob(CacheOwner task) const = 0;

  // Task history (P = 1): the processor the job's next-to-run task last ran
  // on; kNoProcessor if no hint.
  virtual size_t DesiredProcessor(JobId job) const = 0;

  // Usage-based priority (higher = more entitled to processors right now).
  // Implements the credit scheme of [McCann et al. 91]: priority rises while
  // a job uses less than its fair share and falls while it uses more.
  virtual double Priority(JobId job) const = 0;

  // Migration distance tier between two processors (0 = same processor,
  // larger = farther; src/topology). The engine answers from the machine's
  // topology; views without one distinguish only same (0) vs other (1), so
  // policies written against tiers degrade gracefully on flat machines.
  virtual size_t DistanceTier(size_t from, size_t to) const { return from == to ? 0 : 1; }

  // Estimated reload transient `job` would pay to rebuild its working set on
  // `proc`, in seconds: missing blocks x miss service time, evaluated for the
  // job's next-to-run task (the same score the decision trace records per
  // candidate). 0 when nothing would need reloading — including on views
  // without a cache model, so cost-based victim selection degrades to
  // first-candidate order rather than misbehaving.
  virtual double ReloadCostSeconds(JobId job, size_t proc) const {
    (void)job;
    (void)proc;
    return 0.0;
  }

  // Per-job profile facts the static rt policies plan from. Defaulted to
  // zero so views without job profiles (unit-test harnesses) degrade to
  // uniform clustering rather than misbehaving.

  // Working-set size of one worker of `job`, in cache blocks.
  virtual double WorkingSetBlocks(JobId job) const {
    (void)job;
    return 0.0;
  }

  // Shared-data write rate of `job`'s workers (writes/sec) — the coherence
  // traffic that makes co-locating communicating threads on one LLC pay off.
  virtual double SharedWriteRate(JobId job) const {
    (void)job;
    return 0.0;
  }

  // Relative deadline of `job` in seconds; 0 for best-effort jobs.
  virtual double DeadlineSeconds(JobId job) const {
    (void)job;
    return 0.0;
  }

  // Number of cache colors on the machine; 0 when the cache is not
  // partitioned (color-slicing policies then fall back to full masks).
  virtual size_t NumColors() const { return 0; }
};

// Sentinel for Assignment::steal_tier: the assignment is not a steal.
inline constexpr size_t kNoStealTier = static_cast<size_t>(-1);

// Directive: give `proc` to `job`, preferring to dispatch `prefer_task` on it
// (kNoOwner lets the engine pick, which itself prefers an affine worker).
// `reason` is provenance only — the engine realises the assignment the same
// way regardless, but records the code in the decision trace (src/trace).
struct Assignment {
  size_t proc = kNoProcessor;
  JobId job = kInvalidJobId;
  CacheOwner prefer_task = kNoOwner;
  DecisionReason reason = DecisionReason::kUnspecified;
  // Distance tier the work was pulled across when this assignment is a steal
  // (multi-queue policies); kNoStealTier otherwise. Provenance and per-tier
  // steal accounting only — the engine realises the assignment identically.
  size_t steal_tier = kNoStealTier;
};

struct PolicyDecision {
  // Incremental processor assignments.
  std::vector<Assignment> assignments;
  // Full repartition: target processor counts per job. The engine reconciles
  // by preempting over-target jobs and assigning to under-target jobs.
  std::optional<std::map<JobId, size_t>> targets;
};

class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  // A new job entered the system (it appears in view.ActiveJobs()).
  virtual PolicyDecision OnJobArrival(const SchedView& view, JobId job) = 0;

  // A job left; its processors have already been freed.
  virtual PolicyDecision OnJobDeparture(const SchedView& view, JobId job) = 0;

  // `proc` became available: either it is free (holding job departed) or its
  // holding job marked it willing-to-yield.
  virtual PolicyDecision OnProcessorAvailable(const SchedView& view, size_t proc) = 0;

  // `job` asked for additional processors (PendingDemand(job) > 0). The
  // engine re-invokes this while the policy makes progress and demand
  // remains, so returning a single assignment per call is fine.
  virtual PolicyDecision OnRequest(const SchedView& view, JobId job) = 0;

  // How long a job may hold an idle processor before it is advertised as
  // willing-to-yield (Dyn-Aff-Delay returns > 0).
  virtual SimDuration YieldDelay() const { return 0; }

  // True if the policy (and the job runtime cooperating with it) uses
  // affinity information when placing tasks. When false, the engine models an
  // oblivious runtime: workers are dispatched without regard to where their
  // cache context lives (the paper's plain Dynamic policy).
  virtual bool UsesAffinity() const { return false; }

  // Nonzero enables quantum-driven rescheduling (the TimeShare baseline).
  virtual SimDuration Quantum() const { return 0; }

  // Called on quantum expiry for `proc` when Quantum() > 0.
  virtual PolicyDecision OnQuantumExpiry(const SchedView& view, size_t proc);

  // Cadence of the periodic load-balance tick when
  // EngineOptions::balance_interval is 0. No built-in policy overrides it,
  // so a run balances only when that option is set.
  virtual SimDuration BalanceInterval() const { return 0; }

  // Called on each balance tick when balancing is enabled; may migrate work
  // between local queues by returning assignments.
  virtual PolicyDecision OnBalanceTick(const SchedView& view);

  // Cache-color reservation for `job`, consulted once at arrival when the
  // machine runs the partitioned cache model (bit i = color i; the engine
  // trims the mask to the machine's color count). The default all-ones mask
  // reserves every color, which keeps non-partitioning policies byte-
  // identical to their flat-cache behaviour on a 1-color machine and merely
  // unisolated on a many-color one.
  virtual uint64_t ColorMask(const SchedView& view, JobId job) {
    (void)view;
    (void)job;
    return ~0ull;
  }
};

}  // namespace affsched

#endif  // SRC_SCHED_POLICY_H_
