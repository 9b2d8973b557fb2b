// Worker tasks: the kernel-schedulable threads of execution that implement a
// job. Workers are what the allocator places on processors; each carries its
// cache identity (CacheOwner) and its affinity history (the last processor it
// ran on — the P=1 history of Section 5.3).

#ifndef SRC_WORKLOAD_WORKER_H_
#define SRC_WORKLOAD_WORKER_H_

#include <cstdint>
#include <optional>

#include "src/cache/exact_cache.h"
#include "src/common/recency_list.h"
#include "src/workload/job.h"

namespace affsched {

inline constexpr size_t kNoProcessor = SIZE_MAX;

struct Worker {
  enum class State {
    kIdle,       // not placed on any processor
    kRunning,    // executing a thread on `processor`
    kHolding,    // placed on `processor` but with no thread to run
  };

  CacheOwner id = kNoOwner;  // globally unique; tags cache lines
  JobId job = kInvalidJobId;
  State state = State::kIdle;
  size_t processor = kNoProcessor;   // current placement (if not idle)
  std::optional<ThreadRef> current;  // thread being executed
  // Its job's invalidation_debt when it last settled: it owes the rest.
  double settled_debt = 0.0;

  // Affinity history: the last P distinct processors this task ran on,
  // most-recent-first (Section 5.3; the paper evaluates P = 1).
  RecencyList<size_t> processor_history;
  size_t history_depth = 1;

  size_t last_processor() const { return processor_history.MostRecent(kNoProcessor); }

  void RecordPlacement(size_t proc) { processor_history.Record(proc, history_depth); }

  // True if `proc` is in this task's affinity history. Statistics
  // (%affinity) always use the strongest form — the most recent processor —
  // so deeper histories do not inflate the Table 3 metric.
  bool HasAffinityFor(size_t proc) const { return processor_history.Contains(proc); }

  bool MostRecentProcessorIs(size_t proc) const { return last_processor() == proc; }
};

}  // namespace affsched

#endif  // SRC_WORKLOAD_WORKER_H_
