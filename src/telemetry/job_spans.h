// Per-job lifecycle spans: arrival -> queue wait -> dispatch chunks ->
// per-tier migrations -> completion, assembled by the engine's Accounting
// component as the run proceeds.
//
// The collector is the span-side companion of the decision trace
// (src/trace/decision_trace.h): decisions say why a placement happened,
// lifecycles say what it cost the job end to end. ChromeTraceWriter renders
// collected lifecycles as extra spans and instants on the per-job tracks;
// the derived affinity-efficiency numbers (reload-transient fraction,
// migration matrix) land in MetricsRegistry via Accounting::FinalizeMetrics.

#ifndef SRC_TELEMETRY_JOB_SPANS_H_
#define SRC_TELEMETRY_JOB_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/topology/topology.h"
#include "src/workload/job.h"

namespace affsched {

// One cross-processor move of a job's worker (first placements excluded).
struct JobMigration {
  SimTime when = 0;
  size_t proc = SIZE_MAX;
  size_t tier = 0;  // distance tier of the move (see DistanceTierName)
};

struct JobLifecycle {
  JobId job = kInvalidJobId;
  SimTime queued_since = -1;   // admission-queue entry (== arrival when unqueued)
  SimTime arrival = -1;        // entered service
  SimTime first_dispatch = -1; // first worker placed (-1 if never dispatched)
  SimTime completion = -1;     // -1 while running
  uint64_t dispatches = 0;
  uint64_t affine_dispatches = 0;
  uint64_t migrations_by_tier[kNumDistanceTiers] = {0, 0, 0, 0};
  // Individual moves, capped at kMaxRecordedMigrations per job so dispatch-
  // heavy runs stay bounded; the per-tier counters above are always exact.
  std::vector<JobMigration> migrations;
};

// Receives lifecycle notifications from Accounting. Attach with
// Engine::SetSpanCollector; must outlive the engine.
class JobSpanCollector {
 public:
  static constexpr size_t kMaxRecordedMigrations = 4096;

  void OnArrival(JobId job, SimTime arrival, double queue_wait_s);
  // `tier` is SIZE_MAX for a first placement (nothing migrated).
  void OnDispatch(JobId job, size_t proc, SimTime when, size_t tier, bool affine);
  void OnCompletion(JobId job, SimTime when);

  const std::vector<JobLifecycle>& jobs() const { return jobs_; }
  // Lifecycle for `job`; nullptr if the job never arrived.
  const JobLifecycle* Find(JobId job) const;

  // One JSON object per lifecycle, one per line (summary fields plus the
  // per-tier migration counts; individual moves are trace-only).
  std::string ToJsonl() const;

 private:
  JobLifecycle& Slot(JobId job);

  std::vector<JobLifecycle> jobs_;  // indexed by JobId
};

}  // namespace affsched

#endif  // SRC_TELEMETRY_JOB_SPANS_H_
