#include "src/sched/dynamic.h"

#include <algorithm>

#include "src/common/check.h"

namespace affsched {

namespace {

// Priority-credit cost (processor-seconds) per processor of advantage when
// preempting beyond strict equalisation. This is the "spend credits to
// obtain temporarily more than its fair share" mechanism of
// [McCann et al. 91]: jobs that used few processors during narrow phases
// may claim extra ones during bursts, and the rising per-processor cost
// keeps the exchange from thrashing.
constexpr double kCreditMargin = 1.5;

}  // namespace

std::string DynamicOptions::PolicyName() const {
  if (!use_affinity) {
    return "Dynamic";
  }
  if (!enforce_priority) {
    return "Dyn-Aff-NoPri";
  }
  if (yield_delay > 0) {
    return "Dyn-Aff-Delay";
  }
  if (affinity_tier == 1) {
    return "Dyn-Aff-Cluster";
  }
  if (affinity_tier >= 2) {
    return "Dyn-Aff-Node";
  }
  return "Dyn-Aff";
}

std::vector<JobId> DynamicPolicy::RankedRequesters(const SchedView& view) const {
  std::vector<JobId> requesters;
  for (JobId j : view.ActiveJobs()) {
    if (view.PendingDemand(j) > 0) {
      requesters.push_back(j);
    }
  }
  if (options_.enforce_priority) {
    std::stable_sort(requesters.begin(), requesters.end(), [&view](JobId a, JobId b) {
      return view.Priority(a) > view.Priority(b);
    });
  }
  return requesters;
}

PolicyDecision DynamicPolicy::OnJobArrival(const SchedView& /*view*/, JobId /*job*/) {
  // The engine drives a request loop for the arriving job's demand, which
  // lands in OnRequest; nothing else to do here.
  return {};
}

PolicyDecision DynamicPolicy::OnJobDeparture(const SchedView& /*view*/, JobId /*job*/) {
  // Freed processors are announced individually via OnProcessorAvailable.
  return {};
}

PolicyDecision DynamicPolicy::OnProcessorAvailable(const SchedView& view, size_t proc) {
  PolicyDecision decision;
  const std::vector<JobId> requesters = RankedRequesters(view);

  // Rule A.1: if a task remembered in this processor's history is runnable
  // and not active, and its job's priority is as high as any requester's
  // (always, under NoPri), reunite the task with its cache context. With
  // T = 1 (the paper's configuration) only the most recent task is
  // considered; deeper histories fall back to older residents whose context
  // may partially survive. The distance-aware variants widen the search
  // outward by tier: a task whose context lives on a nearby processor
  // (same cluster — the shared LLC is warm; same node — still beats a
  // remote fetch) is reunited with the nearest surviving level of it. At
  // affinity_tier 0 only this processor's own history is consulted,
  // reducing exactly to the flat-machine rule.
  if (options_.use_affinity) {
    for (size_t tier = 0; tier <= options_.affinity_tier; ++tier) {
      for (size_t p = 0; p < view.NumProcessors(); ++p) {
        if (view.DistanceTier(proc, p) != tier) {
          continue;
        }
        for (CacheOwner candidate : view.RecentTasksOn(p)) {
          if (candidate == kNoOwner || !view.TaskRunnable(candidate)) {
            continue;
          }
          const JobId candidate_job = view.TaskJob(candidate);
          const bool priority_ok =
              !options_.enforce_priority || requesters.empty() ||
              view.Priority(candidate_job) >= view.Priority(requesters.front());
          if (priority_ok && view.PendingDemand(candidate_job) > 0) {
            decision.assignments.push_back(
                Assignment{proc, candidate_job, candidate, DecisionReason::kAffinityReunite});
            return decision;
          }
        }
      }
    }
  }

  if (!requesters.empty()) {
    // Don't hand a willing-to-yield processor back to the job that yielded it
    // (it has no work for it); any other requester may take it.
    for (JobId j : requesters) {
      if (j != view.ProcessorJob(proc)) {
        // Distinguish a genuinely free processor from a willing-to-yield one
        // in the provenance record; the mechanics are identical.
        const DecisionReason reason = view.ProcessorJob(proc) == kInvalidJobId
                                          ? DecisionReason::kFreeProcessor
                                          : DecisionReason::kYieldHandoff;
        decision.assignments.push_back(Assignment{proc, j, kNoOwner, reason});
        return decision;
      }
    }
  }
  return decision;
}

size_t DynamicPolicy::PickPreemptionVictim(const SchedView& view, JobId job) const {
  // Find the job with the largest allocation after committed reassignments
  // (using raw allocations would keep picking the same victim before earlier
  // preemptions have taken effect).
  JobId biggest = kInvalidJobId;
  size_t biggest_alloc = 0;
  for (JobId j : view.ActiveJobs()) {
    if (j == job) {
      continue;
    }
    const size_t alloc = view.EffectiveAllocation(j);
    if (alloc > biggest_alloc) {
      biggest = j;
      biggest_alloc = alloc;
    }
  }
  if (biggest == kInvalidJobId) {
    return kNoProcessor;
  }
  const size_t my_alloc = view.EffectiveAllocation(job);
  // Preempt if it moves the allocations toward equality, or if the requester
  // has banked enough priority credit to claim beyond its share: each
  // processor past equality costs kCreditMargin of priority advantage, so
  // bursts are served but over-holding is self-limiting.
  const bool equalizes = biggest_alloc >= my_alloc + 2;
  bool spend_credit = false;
  if (!equalizes) {
    // Spending credit to go beyond equalisation requires (a) the requester to
    // hold genuine banked credit, (b) the victim to stay at or above its fair
    // share, and (c) a priority gap that grows with how far past equality the
    // transfer lands. (a) and (b) keep two near-fair-share jobs from raiding
    // each other endlessly as their priorities cross zero.
    const double fair =
        static_cast<double>(view.NumProcessors()) / static_cast<double>(view.ActiveJobs().size());
    const bool victim_above_fair = static_cast<double>(biggest_alloc) > fair;
    const double extra = static_cast<double>(my_alloc + 2 - biggest_alloc);
    spend_credit = victim_above_fair && view.Priority(job) > 0.0 &&
                   view.Priority(job) > view.Priority(biggest) + kCreditMargin * extra;
  }
  if (!equalizes && !spend_credit) {
    return kNoProcessor;
  }
  // Take the highest-numbered uncommitted processor held by the victim job
  // (deterministic and uninteresting — the engine charges the same costs
  // regardless).
  for (size_t p = view.NumProcessors(); p-- > 0;) {
    if (view.ProcessorJob(p) == biggest && !view.ReassignmentPending(p)) {
      return p;
    }
  }
  return kNoProcessor;
}

PolicyDecision DynamicPolicy::OnRequest(const SchedView& view, JobId job) {
  PolicyDecision decision;
  if (view.PendingDemand(job) == 0) {
    return decision;
  }

  // Rule A.2: honour the requesting job's desired processor if it is
  // available (free or willing to yield). Never preempt useful work for
  // affinity: an active task presumably has greater affinity for the
  // processor than the task we are placing. The distance-aware variants
  // fall outward from the desired processor by tier — the nearest available
  // processor still shares a cache level with the task's context. At
  // affinity_tier 0 only the desired processor itself qualifies, reducing
  // exactly to the flat-machine rule.
  if (options_.use_affinity) {
    const size_t desired = view.DesiredProcessor(job);
    if (desired != kNoProcessor) {
      size_t best = kNoProcessor;
      size_t best_tier = options_.affinity_tier + 1;
      for (size_t p = 0; p < view.NumProcessors() && best_tier > 0; ++p) {
        const size_t tier = view.DistanceTier(desired, p);
        if (tier >= best_tier) {
          continue;
        }
        const JobId holder = view.ProcessorJob(p);
        const bool available =
            holder == kInvalidJobId || (holder != job && view.WillingToYield(p));
        if (available) {
          best = p;
          best_tier = tier;
        }
      }
      if (best != kNoProcessor) {
        decision.assignments.push_back(
            Assignment{best, job, kNoOwner, DecisionReason::kAffinityDesired});
        return decision;
      }
    }
  }

  // Rule D.1: any unallocated processor. With affinity enabled, prefer a free
  // processor whose last task belonged to this job.
  size_t free_proc = kNoProcessor;
  for (size_t p = 0; p < view.NumProcessors(); ++p) {
    if (view.ProcessorJob(p) != kInvalidJobId) {
      continue;
    }
    if (free_proc == kNoProcessor) {
      free_proc = p;
    }
    if (options_.use_affinity) {
      const CacheOwner last = view.LastTaskOn(p);
      if (last != kNoOwner && view.TaskJob(last) == job) {
        free_proc = p;
        break;
      }
    } else {
      break;
    }
  }
  if (free_proc != kNoProcessor) {
    decision.assignments.push_back(
        Assignment{free_proc, job, kNoOwner, DecisionReason::kFreeProcessor});
    return decision;
  }

  // Rule D.2: willing-to-yield processors (held by other jobs).
  size_t yield_proc = kNoProcessor;
  for (size_t p = 0; p < view.NumProcessors(); ++p) {
    if (view.ProcessorJob(p) == job || view.ProcessorJob(p) == kInvalidJobId ||
        !view.WillingToYield(p)) {
      continue;
    }
    if (yield_proc == kNoProcessor) {
      yield_proc = p;
    }
    if (options_.use_affinity) {
      const CacheOwner last = view.LastTaskOn(p);
      if (last != kNoOwner && view.TaskJob(last) == job) {
        yield_proc = p;
        break;
      }
    } else {
      break;
    }
  }
  if (yield_proc != kNoProcessor) {
    decision.assignments.push_back(
        Assignment{yield_proc, job, kNoOwner, DecisionReason::kYieldHandoff});
    return decision;
  }

  // Rule D.3: equitable preemption (disabled under NoPri).
  if (options_.enforce_priority) {
    const size_t victim = PickPreemptionVictim(view, job);
    if (victim != kNoProcessor) {
      decision.assignments.push_back(
          Assignment{victim, job, kNoOwner, DecisionReason::kPreemptEquitable});
      return decision;
    }
  }
  return decision;
}

}  // namespace affsched
