// SweepRunner: executes a SweepSpec's grid on a WorkerPool.
//
// Scheduling model: the grid expands into (policy, mix) experiments whose
// replications are the unit of parallelism. Replications are scheduled in
// rounds — every experiment's next needed replication is submitted to the
// pool, the round drains, results fold in (mix-major, policy, replication)
// order, and experiments whose confidence bound is unmet (and cap unreached)
// get one more replication next round. Each experiment therefore stops at
// the same replication count as a serial loop over ReplicationFolder::Done
// would, and the replication counts, the aggregates, and the serialized JSON
// are bit-identical at any worker count.
//
// Thread-safety of the simulation stack (audited for this runner; guarded by
// the TSan CI job): an Engine owns every piece of mutable state it touches —
// event queue, machine, caches, policy, RNG, per-job accounting — and the
// library's only statics are immutable tables and the lazily-initialized log
// level (thread-safe magic static, read-only afterwards). AppProfile's
// build_graph closures capture parameters by value. Concurrent engines
// therefore share nothing, and cells need no locking.

#ifndef SRC_RUNNER_RUNNER_H_
#define SRC_RUNNER_RUNNER_H_

#include <functional>

#include "src/runner/heartbeat.h"
#include "src/runner/sweep.h"

namespace affsched {

// One cell's identity in the grid, as seen by the cell-level hooks below.
// The seed is the DeriveCellSeed value — policy-independent (CRN), so two
// refs differing only in policy carry the same seed by design.
struct SweepCellRef {
  PolicyKind policy = PolicyKind::kDynamic;
  int mix_number = 0;      // Table 2 workload number
  size_t mix_index = 0;    // position in SweepSpec::mixes
  size_t replication = 0;
  uint64_t seed = 0;
};

struct SweepRunnerOptions {
  // Worker threads; 0 means WorkerPool::DefaultThreadCount().
  size_t jobs = 0;
  // Called on the orchestration thread after each round with (cells
  // completed, cells currently known to be needed). Totals can grow between
  // calls as adaptive replication schedules more work.
  std::function<void(size_t completed, size_t scheduled)> progress;
  // Richer per-round statistics (wall times, simulation events) for live
  // observability, invoked on the orchestration thread after each round, just
  // before `progress`. Typically bound to HeartbeatWriter::OnRound.
  std::function<void(const SweepRoundStats&)> round_stats;
  // Replaces the per-cell simulation (testing/instrumentation). Defaults to
  // measure's RunOnce. Must be thread-safe.
  std::function<RunResult(const SweepCellRef& ref, const MachineConfig& machine,
                          PolicyKind policy, const std::vector<AppProfile>& jobs, uint64_t seed,
                          const EngineOptions& options)>
      run_cell;
  // Cache probe seam (the serve layer's content-addressed result cache).
  // Called on the orchestration thread for every cell of a round before the
  // round executes; returning true (and filling `out`) satisfies the cell
  // without simulating it. Because results are deterministic functions of
  // the cell identity, substituting a cached result cannot change the fold
  // or the stopping rule — only skip work.
  std::function<bool(const SweepCellRef& ref, RunResult* out)> probe_cell;
  // Checkpoint seam: called on the WORKER thread immediately after a cell is
  // simulated (never for probe hits), so completed cells can persist before
  // the sweep finishes — a killed sweep resumes from them. Must be
  // thread-safe.
  std::function<void(const SweepCellRef& ref, const RunResult& result)> store_cell;
  // Streaming seam: called on the orchestration thread in deterministic fold
  // order as each cell's result folds in; `from_cache` distinguishes probe
  // hits from fresh simulations.
  std::function<void(const SweepCellRef& ref, const RunResult& result, bool from_cache)> on_cell;
};

class SweepRunner {
 public:
  explicit SweepRunner(const SweepRunnerOptions& options = {});

  // Executes the grid. If a cell throws, every in-flight cell completes, the
  // pool shuts down cleanly, and the first (lowest-indexed) exception is
  // rethrown.
  SweepResult Run(const SweepSpec& spec) const;

 private:
  SweepRunnerOptions options_;
};

}  // namespace affsched

#endif  // SRC_RUNNER_RUNNER_H_
