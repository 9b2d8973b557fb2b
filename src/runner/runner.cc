#include "src/runner/runner.h"

#include <chrono>
#include <utility>

#include "src/common/check.h"
#include "src/rt/deadline_mix.h"
#include "src/runner/cell_seed.h"
#include "src/runner/worker_pool.h"

namespace affsched {

SweepRunner::SweepRunner(const SweepRunnerOptions& options) : options_(options) {}

namespace {

// Mutable scheduling state for one (policy, mix) experiment.
struct ExperimentState {
  size_t mix_index = 0;
  PolicyKind policy = PolicyKind::kDynamic;
  ReplicationFolder folder;
  size_t scheduled = 0;  // replications submitted so far
  bool done = false;
  std::vector<CellResult> cells;

  ExperimentState(size_t mix_index_in, PolicyKind policy_in, size_t num_jobs)
      : mix_index(mix_index_in), policy(policy_in), folder(num_jobs) {}
};

struct PendingCell {
  size_t experiment = 0;
  size_t replication = 0;
};

}  // namespace

SweepResult SweepRunner::Run(const SweepSpec& spec) const {
  AFF_CHECK_MSG(!spec.policies.empty() && !spec.mixes.empty(), "empty sweep grid");
  AFF_CHECK_MSG(spec.replication.min_replications >= 1 &&
                    spec.replication.max_replications >= spec.replication.min_replications,
                "bad replication bounds");
  const auto wall_start = std::chrono::steady_clock::now();

  auto run_cell = options_.run_cell;
  if (!run_cell) {
    run_cell = [](const SweepCellRef&, const MachineConfig& machine, PolicyKind policy,
                  const std::vector<AppProfile>& jobs, uint64_t seed,
                  const EngineOptions& engine_options) {
      return RunOnce(machine, policy, jobs, seed, engine_options);
    };
  }

  // Expand each mix's job list once; cells share it read-only.
  std::vector<std::vector<AppProfile>> mix_jobs;
  mix_jobs.reserve(spec.mixes.size());
  for (const WorkloadMix& mix : spec.mixes) {
    mix_jobs.push_back(mix.Expand(spec.apps));
    AFF_CHECK_MSG(!mix_jobs.back().empty(), "mix expands to zero jobs");
    if (spec.rt) {
      std::string mix_error;
      AFF_CHECK_MSG(ApplyDeadlineMix(spec.deadline_mix, spec.machine.num_processors,
                                     &mix_jobs.back(), &mix_error),
                    mix_error.c_str());
    }
  }

  // Mix-major, then policy — the order experiments appear in the result.
  std::vector<ExperimentState> experiments;
  experiments.reserve(spec.mixes.size() * spec.policies.size());
  for (size_t m = 0; m < spec.mixes.size(); ++m) {
    for (PolicyKind policy : spec.policies) {
      experiments.emplace_back(m, policy, mix_jobs[m].size());
    }
  }

  WorkerPool pool(options_.jobs == 0 ? WorkerPool::DefaultThreadCount() : options_.jobs);
  size_t completed_cells = 0;
  size_t round_index = 0;

  while (true) {
    // Gather this round's cells: per experiment, the replications between
    // what has been scheduled and what the stopping rule currently needs
    // (min_replications to start with, +1 per round once adaptive).
    std::vector<PendingCell> batch;
    for (size_t e = 0; e < experiments.size(); ++e) {
      ExperimentState& experiment = experiments[e];
      if (experiment.done) {
        continue;
      }
      const size_t target = experiment.scheduled < spec.replication.min_replications
                                ? spec.replication.min_replications
                                : experiment.scheduled + 1;
      for (size_t rep = experiment.scheduled; rep < target; ++rep) {
        batch.push_back(PendingCell{e, rep});
      }
      experiment.scheduled = target;
    }
    if (batch.empty()) {
      break;
    }

    // Execute the round. Cell results land in slots indexed by batch
    // position, so the fold below runs in deterministic order no matter
    // which worker finished first. The cache probe runs first, on the
    // orchestration thread: hits fill their slots directly and only the
    // misses go to the pool. Neither path can change the fold order, so
    // caching is invisible to the stopping rule and the serialized result.
    std::vector<RunResult> round(batch.size());
    std::vector<SweepCellRef> refs(batch.size());
    std::vector<char> from_cache(batch.size(), 0);
    std::vector<size_t> todo;
    todo.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const PendingCell& cell = batch[i];
      const ExperimentState& experiment = experiments[cell.experiment];
      const WorkloadMix& mix = spec.mixes[experiment.mix_index];
      refs[i] = SweepCellRef{experiment.policy, mix.number, experiment.mix_index,
                             cell.replication,
                             DeriveCellSeed(spec.root_seed, mix.number, cell.replication)};
      if (options_.probe_cell && options_.probe_cell(refs[i], &round[i])) {
        from_cache[i] = 1;
      } else {
        todo.push_back(i);
      }
    }
    const auto round_start = std::chrono::steady_clock::now();
    pool.ParallelFor(todo.size(), [&](size_t k) {
      const size_t i = todo[k];
      const SweepCellRef& ref = refs[i];
      round[i] = run_cell(ref, spec.machine, ref.policy, mix_jobs[ref.mix_index], ref.seed,
                          spec.engine);
      if (options_.store_cell) {
        options_.store_cell(ref, round[i]);
      }
    });
    const double round_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - round_start).count();
    uint64_t round_events = 0;
    uint64_t round_deadline_misses = 0;
    for (const RunResult& r : round) {
      round_events += r.events;
      for (const JobResult& job : r.jobs) {
        round_deadline_misses += job.stats.deadline_misses;
      }
    }
    ++round_index;

    // Fold sequentially; batch construction guarantees ascending replication
    // order within each experiment.
    for (size_t i = 0; i < batch.size(); ++i) {
      const PendingCell& cell = batch[i];
      ExperimentState& experiment = experiments[cell.experiment];
      experiment.folder.Fold(round[i]);
      if (options_.on_cell) {
        options_.on_cell(refs[i], round[i], from_cache[i] != 0);
      }
      experiment.cells.push_back(CellResult{cell.replication, refs[i].seed, std::move(round[i])});
      ++completed_cells;
    }
    for (ExperimentState& experiment : experiments) {
      if (!experiment.done && experiment.scheduled > 0 &&
          experiment.folder.replications() == experiment.scheduled) {
        experiment.done = experiment.folder.Done(spec.replication);
      }
    }
    if (options_.progress || options_.round_stats) {
      size_t known = completed_cells;
      for (const ExperimentState& experiment : experiments) {
        if (!experiment.done) {
          ++known;  // at least one more replication coming
        }
      }
      if (options_.round_stats) {
        SweepRoundStats stats;
        stats.round = round_index;
        stats.round_cells = batch.size();
        stats.completed = completed_cells;
        stats.scheduled = known;
        stats.round_wall_s = round_wall_s;
        stats.total_wall_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
        stats.round_events = round_events;
        stats.round_deadline_misses = round_deadline_misses;
        options_.round_stats(stats);
      }
      if (options_.progress) {
        options_.progress(completed_cells, known);
      }
    }
  }

  SweepResult result;
  result.spec = spec;
  result.experiments.reserve(experiments.size());
  for (ExperimentState& experiment : experiments) {
    ExperimentResult out;
    out.policy = experiment.policy;
    out.mix = spec.mixes[experiment.mix_index];
    out.replicated = experiment.folder.Finish();
    out.cells = std::move(experiment.cells);
    result.experiments.push_back(std::move(out));
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

}  // namespace affsched
