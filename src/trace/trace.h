// Execution tracing: a bounded record of scheduling events (dispatches,
// preemptions, yields, thread and job completions) that can be exported as
// CSV or rendered as an ASCII Gantt chart of processor occupancy.
//
// The engine emits events through the TraceSink interface; a null sink costs
// one virtual call per event. Traces make scheduling behaviour inspectable —
// the examples use them to *show* the difference between Equipartition's
// static placement and Dynamic's processor churn.

#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/exact_cache.h"
#include "src/common/time.h"
#include "src/workload/job.h"

namespace affsched {

enum class TraceEventKind : uint8_t {
  kJobArrival,
  kJobCompletion,
  kSwitchStart,    // reallocation path-length cost begins on a processor
  kDispatch,       // worker activated on a processor (a reallocation)
  kResume,         // a holding worker picked up new work (no reallocation)
  kPreempt,        // worker stopped at a chunk boundary for another job
  kHold,           // worker idles holding the processor
  kYield,          // processor advertised willing-to-yield
  kRelease,        // processor leaves its holding job
  kThreadComplete,
  kDeadlineMiss,   // rt job completed after its relative deadline
};

const char* TraceEventKindName(TraceEventKind kind);

// Number of distinct TraceEventKind values (for iteration in tests).
inline constexpr size_t kNumTraceEventKinds =
    static_cast<size_t>(TraceEventKind::kDeadlineMiss) + 1;

struct TraceEvent {
  SimTime when = 0;
  TraceEventKind kind = TraceEventKind::kDispatch;
  size_t proc = SIZE_MAX;          // SIZE_MAX when not processor-specific
  JobId job = kInvalidJobId;
  CacheOwner worker = kNoOwner;    // kNoOwner when not worker-specific
  // True for dispatches landing the worker on its previous processor.
  bool affine = false;
};

// Receives events from the engine.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Record(const TraceEvent& event) = 0;
};

// Stores up to `capacity` events (oldest dropped first).
class RingTrace : public TraceSink {
 public:
  explicit RingTrace(size_t capacity = 1 << 20);

  void Record(const TraceEvent& event) override;

  // Events in chronological order (oldest retained first).
  std::vector<TraceEvent> Events() const;

  size_t size() const { return count_ < capacity_ ? count_ : capacity_; }
  uint64_t total_recorded() const { return count_; }
  size_t dropped() const {
    return count_ > capacity_ ? static_cast<size_t>(count_ - capacity_) : 0;
  }

  // One line per event: "time_us,kind,proc,job,worker,affine".
  std::string ToCsv() const;

  // ASCII Gantt chart: one row per processor, one column per time bucket,
  // cell = job id occupying the processor ('.' idle, '*' switching).
  std::string RenderGantt(size_t num_procs, SimTime start, SimTime end, size_t columns = 100) const;

 private:
  size_t capacity_;
  uint64_t count_ = 0;
  std::vector<TraceEvent> ring_;
};

}  // namespace affsched

#endif  // SRC_TRACE_TRACE_H_
