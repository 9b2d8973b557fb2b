// Accounting: the one component that writes response-time-model terms and
// telemetry.
//
// Every term of the paper's response-time model — useful work, waste,
// #reallocations, %affinity, switch time, reload/steady stalls, the
// allocation integral — is charged through this class into JobStats, so
// Engine, measure/ and the telemetry exporters all read numbers with a
// single producer. The metrics registry gets those terms from JobStats once,
// at the end of the run; only counts JobStats does not hold (scheduling
// events, chunks, policy decisions) are streamed, each from one place. It
// also owns the usage-credit priority state updates.

#ifndef SRC_ENGINE_ACCOUNTING_H_
#define SRC_ENGINE_ACCOUNTING_H_

#include "src/engine/engine_core.h"
#include "src/telemetry/job_spans.h"
#include "src/telemetry/metrics.h"
#include "src/topology/topology.h"

namespace affsched {

// Tier value for a dispatch with no previous placement (nothing migrated).
inline constexpr size_t kNoMigrationTier = static_cast<size_t>(-1);

class Accounting {
 public:
  explicit Accounting(EngineCore& core) : core_(core) {}

  // --- Registry wiring -------------------------------------------------------

  // Attaches a metrics registry (nullptr detaches) and registers the counts
  // streamed during the run. Must not be called mid-run.
  void SetMetrics(MetricsRegistry* registry);
  MetricsRegistry* metrics() const { return metrics_; }
  // End of Run(): writes every total JobStats holds (dispatches, stalls,
  // waste, switch time, migrations, steals, deadline terms, the per-job
  // counters and the affinity-efficiency gauges), plus the bus totals and
  // the active-jobs gauge. Durations are whole nanoseconds.
  void FinalizeMetrics();

  // Attaches a lifecycle span collector (nullptr detaches). Arrival,
  // dispatch and completion notifications flow to it; every site costs one
  // null check while detached. Must not be called mid-run.
  void SetSpanCollector(JobSpanCollector* spans);
  JobSpanCollector* spans() const { return spans_; }

  // --- Scheduling events -----------------------------------------------------

  // One scheduling event: records it on the trace sink and bumps its
  // engine.* event counter. Dispatches and deadline misses have no counter
  // here; their totals come from JobStats.
  void Note(TraceEventKind kind, size_t proc, JobId job, CacheOwner worker = kNoOwner,
            bool affine = false);
  // One policy decision about to be realised: bumps the policy.* counter of
  // its site and counts its assignments and repartitions.
  void NoteDecision(DecisionSite site, const PolicyDecision& decision);

  // Job entered service (engine OnJobArrival): notes the arrival and opens
  // the lifecycle span.
  void NoteJobArrival(JobId id);
  // Job left the system: notes the completion, charges a missed deadline
  // (noting that too), and closes the span.
  void NoteJobCompletion(JobId id);

  // --- Response-time-model charges -------------------------------------------

  // One chunk of useful execution: work and the stall split.
  void ChargeChunk(JobState& js, SimDuration work_done, SimDuration reload_stall,
                   SimDuration steady_stall);
  // Reload-cost attribution for one chunk with LLC hits or remote fills: the
  // spans of reload stall served by the cluster LLC / remote memory. Charged
  // at chunk start (chunks always run to completion, so the totals match).
  void ChargeReloadTiers(JobState& js, SimDuration reload_llc, SimDuration reload_remote);
  // One reallocation path-length cost (kernel switch) charged to the job.
  void ChargeSwitch(JobState& js);
  // A completed holding period of `held` that produced no work.
  void ChargeWaste(JobState& js, SimDuration held);
  // One reallocation the job experienced, affine or not. `tier` is the
  // migration distance from the task's previous processor
  // (kNoMigrationTier for a first placement); `proc` the landing processor.
  void RecordDispatch(JobState& js, size_t proc, bool affine, size_t tier = kNoMigrationTier);
  // One realised multi-queue steal of `js` across `tier` (1-based: stealing
  // from the own queue is a local dispatch).
  void RecordSteal(JobState& js, size_t tier);
  // One realised balance-tick migration of `js`.
  void RecordBalanceMigration(JobState& js);

  // --- Allocation/credit/parallelism bookkeeping -----------------------------

  void UpdateAllocIntegral(JobId id);
  void UpdateCredit(JobId id);
  void ChangeAllocation(JobId id, int delta);
  void RecordParallelism(JobId id);
  // The one writer of ProcState::running: `worker` starts running chunks on
  // `proc`, or (kNoOwner) the worker running there stops. Closes the
  // parallelism histogram's interval at the old count, then updates the
  // processor and the job's running count together. A worker that stops
  // settles its coherence debt first (TakeOwed); one that starts owes none.
  void SetRunning(size_t proc, CacheOwner worker);

 private:
  EngineCore& core_;
  MetricsRegistry* metrics_ = nullptr;
  JobSpanCollector* spans_ = nullptr;
  // Streamed counts, nullptr while detached (and for the event kinds and
  // decision sites that have no counter).
  Counter* events_[kNumTraceEventKinds] = {};
  Counter* decisions_[kNumDecisionSites] = {};
  Counter* assignments_ = nullptr;
  Counter* repartitions_ = nullptr;
  Counter* chunks_ = nullptr;
  FixedHistogram* reload_stall_us_ = nullptr;
  FixedHistogram* chunk_wall_us_ = nullptr;
};

}  // namespace affsched

#endif  // SRC_ENGINE_ACCOUNTING_H_
