// Decision-provenance tracing: a structured record of *why* the allocator
// placed a job on a processor — the candidate processor set, each candidate's
// affinity score breakdown (resident footprint, migration distance tier,
// estimated reload cost), the chosen processor, and the policy reason code.
//
// RingTrace (trace.h) answers "what happened on each processor"; this layer
// answers "why did the scheduler do that". The engine assembles one
// DecisionRecord per realised policy assignment and streams it through the
// DecisionSink interface; a null sink costs a single pointer compare on the
// dispatch path. perfbench's sinks.attached_over_detached measures what
// attaching every sink costs.
// DecisionTrace is the bounded in-memory sink, exportable as JSONL and (via
// ChromeTraceWriter) as Perfetto flow events linked to the per-proc tracks.

#ifndef SRC_TRACE_DECISION_TRACE_H_
#define SRC_TRACE_DECISION_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/exact_cache.h"
#include "src/common/time.h"
#include "src/workload/job.h"

namespace affsched {

// Why a policy granted a processor. The codes mirror the rule names of
// Section 5 of the paper (A.1/A.2 affinity rules, D.1-D.3 dynamic rules).
enum class DecisionReason : uint8_t {
  kUnspecified,       // policy did not annotate the assignment
  kAffinityReunite,   // rule A.1: reunite a task with its surviving context
  kAffinityDesired,   // rule A.2: the job's desired processor (tier-widened)
  kFreeProcessor,     // rule D.1: an unallocated processor
  kYieldHandoff,      // rule D.2: a willing-to-yield processor changed hands
  kPreemptEquitable,  // rule D.3: equitable preemption (credit-gated)
  kRepartition,       // a full-target reconcile moved this processor
  kQuantumRotate,     // time-sharing quantum expiry rotation
  kDemandHandoff,     // largest-unmet-demand handoff (TimeShare baseline)
  kLocalQueue,        // multi-queue: work served from the processor's own queue
  kSteal,             // multi-queue: work pulled from another queue's home
  kBalanceMigrate,    // multi-queue: periodic load-balance migration
};

const char* DecisionReasonName(DecisionReason reason);

// Number of distinct DecisionReason values (for iteration in tests).
inline constexpr size_t kNumDecisionReasons =
    static_cast<size_t>(DecisionReason::kBalanceMigrate) + 1;

// Which engine decision point produced the record.
enum class DecisionSite : uint8_t {
  kUnknown,
  kJobArrival,
  kJobDeparture,
  kProcessorAvailable,
  kRequest,
  kQuantumExpiry,
  kReconcile,
  kBalanceTick,
};

const char* DecisionSiteName(DecisionSite site);

inline constexpr size_t kNumDecisionSites =
    static_cast<size_t>(DecisionSite::kBalanceTick) + 1;

// One candidate processor's affinity score breakdown at decision time.
struct DecisionCandidate {
  size_t proc = SIZE_MAX;
  // Migration distance tier from the reference task's last processor
  // (SIZE_MAX when the task has no placement history — nothing migrates).
  size_t tier = SIZE_MAX;
  // Cache blocks of the reference task's context resident on this processor.
  double footprint_blocks = 0.0;
  // Estimated reload transient to rebuild the job's working set here, in
  // seconds: missing blocks x miss service time.
  double reload_cost_s = 0.0;
  // Free, or advertised willing-to-yield with no committed reassignment.
  bool available = false;
  bool chosen = false;
};

// One realised scheduling decision.
struct DecisionRecord {
  uint64_t id = 0;  // 1-based, monotonically increasing per engine
  SimTime when = 0;
  DecisionSite site = DecisionSite::kUnknown;
  DecisionReason reason = DecisionReason::kUnspecified;
  JobId job = kInvalidJobId;
  size_t chosen_proc = SIZE_MAX;
  // Task the policy asked to see dispatched (kNoOwner when it left the
  // choice to the engine).
  CacheOwner prefer_task = kNoOwner;
  std::vector<DecisionCandidate> candidates;

  // One JSON object, no trailing newline.
  std::string ToJson() const;
};

// Receives decision records from the engine.
class DecisionSink {
 public:
  virtual ~DecisionSink() = default;
  virtual void Record(DecisionRecord record) = 0;
};

// Stores up to `capacity` records (oldest dropped first), mirroring
// RingTrace's eviction contract.
class DecisionTrace : public DecisionSink {
 public:
  explicit DecisionTrace(size_t capacity = 1 << 16);

  void Record(DecisionRecord record) override;

  // Records in chronological order (oldest retained first).
  std::vector<DecisionRecord> Records() const;

  size_t size() const { return count_ < capacity_ ? static_cast<size_t>(count_) : capacity_; }
  uint64_t total_recorded() const { return count_; }
  size_t dropped() const {
    return count_ > capacity_ ? static_cast<size_t>(count_ - capacity_) : 0;
  }

  // One JSON object per line. When records were dropped, the final line is a
  // {"dropped": N} marker (still valid JSONL) so consumers can detect a
  // truncated trace — the analogue of RingTrace::ToCsv()'s "# dropped=N".
  std::string ToJsonl() const;

 private:
  size_t capacity_;
  uint64_t count_ = 0;
  std::vector<DecisionRecord> ring_;
};

}  // namespace affsched

#endif  // SRC_TRACE_DECISION_TRACE_H_
