// Shared mutable state of the simulation engine, plus the pure queries over
// it. The engine's behaviour is implemented by three components that all
// operate on this one structure:
//
//   * Dispatcher (dispatcher.h)          — worker selection, chunk execution
//   * AllocatorProtocol (allocator_protocol.h) — the Section-5 job<->allocator
//     negotiation and reallocation mechanics
//   * Accounting (accounting.h)          — every response-time-model term and
//     all telemetry
//
// Engine (engine.h) is the composition root that wires them together and
// exposes SchedView to policies. Keeping the state in one struct (rather than
// spread across the components) preserves the monolith's exact operation
// order — the components are views onto the same machine, not actors with
// their own worlds.

#ifndef SRC_ENGINE_ENGINE_CORE_H_
#define SRC_ENGINE_ENGINE_CORE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/machine/machine.h"
#include "src/sched/policy.h"
#include "src/sim/event_queue.h"
#include "src/stats/histogram.h"
#include "src/trace/decision_trace.h"
#include "src/trace/trace.h"
#include "src/workload/app_profile.h"
#include "src/workload/job.h"
#include "src/workload/worker.h"

namespace affsched {

struct EngineOptions {
  // Maximum useful work per execution chunk; bounds dispatch latency.
  SimDuration chunk_quantum = Milliseconds(2);
  // Record per-job parallelism histograms (Figures 2-4).
  bool record_parallelism = false;
  // Depth of each task's processor history (P of Section 5.3; the paper
  // evaluates P = 1). Affinity placement may use any remembered processor;
  // %affinity statistics always use the most recent one.
  size_t processor_history_depth = 1;
  // Cadence of the periodic load-balance tick (multi-queue policies). 0 (the
  // default) falls back to Policy::BalanceInterval(), which is 0 for every
  // built-in policy, so 0 turns balancing off.
  SimDuration balance_interval = 0;
};

struct ProcState {
  JobId holder = kInvalidJobId;
  // Worker executing a chunk here (kNoOwner if none). Written only by
  // Accounting::SetRunning, which keeps JobState::running in step.
  CacheOwner running = kNoOwner;
  // Worker placed here but currently without a thread.
  CacheOwner holding = kNoOwner;
  // True while the reallocation path-length cost is being paid.
  bool switching = false;
  // Advertised as reallocatable.
  bool willing = false;
  // Committed reassignment, applied at the next chunk boundary (or at
  // switch completion).
  bool pending_valid = false;
  JobId pending_job = kInvalidJobId;
  CacheOwner pending_prefer = kNoOwner;
  // Task the policy asked to see dispatched once the in-progress switch
  // completes (rule A.1).
  CacheOwner dispatch_prefer = kNoOwner;
  SimTime hold_start = 0;
  EventId yield_timer = kInvalidEventId;
  EventId quantum_timer = kInvalidEventId;
};

struct JobState {
  // Stable storage for the job's application profile (Job keeps a
  // reference to it).
  std::unique_ptr<AppProfile> profile;
  std::unique_ptr<Job> job;
  bool active = false;     // arrived and not completed
  size_t allocation = 0;   // processors currently held (incl. switching)
  size_t pending_incoming = 0;
  size_t pending_outgoing = 0;
  // Processors mid-switch toward this job (they will consume a ready
  // thread when the switch completes).
  size_t switching_in = 0;
  // Idle workers, most recently idled first.
  std::vector<CacheOwner> idle_workers;
  // The job's workers running chunks (its parallelism); written only by
  // Accounting::SetRunning.
  size_t running = 0;
  // Blocks each chunk's shared writes invalidated in every running sibling's
  // cache, cumulative: each worker pays its share lazily (TakeOwed).
  double invalidation_debt = 0.0;
  // Usage-credit priority state.
  double credit = 0.0;
  SimTime credit_update = 0;
  SimTime alloc_update = 0;
  std::unique_ptr<WeightedHistogram> par_hist;
  SimTime par_update = 0;
  // Cache-color reservation (colored machines only): the mask the
  // policy answered at arrival, applied to every worker this job creates.
  // All-ones — every color — for jobs under non-partitioning policies.
  uint64_t color_mask = ~0ull;
};

struct EngineCore {
  EngineCore(const MachineConfig& machine_config, std::unique_ptr<Policy> policy_in,
             uint64_t seed, const EngineOptions& options_in);

  // --- Queries ---------------------------------------------------------------

  Worker& worker(CacheOwner id);
  const Worker& worker(CacheOwner id) const;
  // True if `id` names a worker created by CreateWorker.
  bool HasWorker(CacheOwner id) const { return id >= 1 && id <= workers.size(); }
  JobState& job_state(JobId id);
  const JobState& job_state(JobId id) const;
  CacheOwner CreateWorker(JobId id);
  // Returns the blocks a running worker's siblings have invalidated since it
  // last settled (invalidation_debt less its settled_debt) and marks them
  // settled; the caller ejects them from its cache: at its chunk start, at
  // thread completion (before ReplaceOwnerData), or when it stops running.
  double TakeOwed(Worker& w);

  // Processors a job holds net of committed reassignments.
  size_t EffectiveAllocation(JobId id) const;
  // Additional processors the job can productively use right now.
  size_t PendingDemand(JobId id) const;
  double FairShare() const;
  // Usage-credit priority (decayed credit plus accrual against fair share).
  double Priority(JobId id) const;
  // The job's first idle worker with a placement history (kNoOwner if none):
  // the worker the dispatcher is most likely to pick, and the reference task
  // that desired-processor queries, reload-cost scoring and the decision
  // trace all use.
  CacheOwner ReferenceTask(JobId id) const;
  // Seconds of miss service to refill a `ws_blocks` working set on
  // processor `proc` when `resident` blocks of it are already there:
  // (MaxResident - resident) x miss service, or 0 if nothing is missing.
  double ReloadSeconds(size_t proc, double resident, double ws_blocks) const;

  // --- State -----------------------------------------------------------------

  EngineOptions options;
  EventQueue queue;
  Machine machine;
  std::unique_ptr<Policy> policy;
  Rng rng;
  // The SchedView policies consult (the Engine); set by the composition root.
  SchedView* view = nullptr;

  std::vector<JobState> jobs;      // indexed by JobId
  std::vector<JobId> active_jobs;  // arrival order
  std::vector<ProcState> procs;
  std::vector<Worker> workers;  // indexed by worker id - 1 (ids start at 1)
  CacheOwner next_worker_id = 1;
  size_t jobs_remaining = 0;
  // External (open-system) events not yet run: arrival streams keep the run
  // loop alive across intervals where no submitted job remains.
  size_t external_pending = 0;
  // Invoked synchronously from HandleJobCompletion after the departure is
  // accounted, before the policy is notified. Open-system drivers use it to
  // admit queued jobs at departure instants.
  std::function<void(JobId)> completion_hook;
  bool running = false;
  TraceSink* trace = nullptr;
  // Decision-provenance sink (nullptr disables; the guard is one pointer
  // compare before any record assembly happens).
  DecisionSink* decisions = nullptr;
  uint64_t next_decision_id = 1;

  // True while the run loop must keep going: submitted jobs outstanding or
  // external events (future arrivals) still pending.
  bool WorkRemaining() const { return jobs_remaining > 0 || external_pending > 0; }
};

}  // namespace affsched

#endif  // SRC_ENGINE_ENGINE_CORE_H_
