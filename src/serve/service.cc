#include "src/serve/service.h"

#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "src/measure/experiment.h"
#include "src/sched/factory.h"
#include "src/serve/spec_canon.h"
#include "src/serve/wire.h"
#include "src/telemetry/json.h"
#include "src/telemetry/manifest.h"

namespace affsched {

namespace {

std::string KeyFor(const SweepSpec& spec, const SweepCellRef& ref, const std::string& git_rev) {
  return CellKeyWithRev(spec, ref.policy, ref.mix_number, ref.replication, ref.seed, git_rev);
}

}  // namespace

SweepService::SweepService(const SweepServiceOptions& options) : options_(options) {
  git_rev_ = options_.git_rev.empty() ? RunManifest::GitSha() : options_.git_rev;
  ResultCacheOptions cache_options;
  cache_options.dir = options_.cache_dir;
  cache_options.max_bytes = options_.max_cache_bytes;
  cache_ = std::make_unique<ResultCache>(cache_options);
}

void SweepService::set_round_stats(std::function<void(const SweepRoundStats&)> hook) {
  round_stats_ = std::move(hook);
}

bool SweepService::Submit(const SweepSpec& spec,
                          const std::function<void(const std::string&)>& emit,
                          SubmitOutcome* outcome, std::string* error) {
  counters_.submits.fetch_add(1, std::memory_order_relaxed);
  SubmitOutcome local;
  local.sweep_key = SweepKey(spec);

  const size_t cells_min =
      spec.policies.size() * spec.mixes.size() * spec.replication.min_replications;
  if (emit) {
    emit("{\"event\":\"planned\",\"sweep\":\"" + local.sweep_key + "\",\"name\":\"" +
         JsonEscape(spec.name) + "\",\"cells_min\":" + std::to_string(cells_min) + "}");
  }

  SweepRunnerOptions runner_options;
  runner_options.jobs = options_.jobs;
  runner_options.round_stats = round_stats_;

  runner_options.probe_cell = [&](const SweepCellRef& ref, RunResult* out) {
    if (!cache_->Probe(KeyFor(spec, ref, git_rev_), out)) {
      return false;
    }
    ++local.hits;
    counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  runner_options.run_cell = [&](const SweepCellRef&, const MachineConfig& machine,
                                PolicyKind policy, const std::vector<AppProfile>& jobs,
                                uint64_t seed, const EngineOptions& engine) {
    if (options_.cell_delay_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(options_.cell_delay_s));
    }
    counters_.inflight.fetch_add(1, std::memory_order_relaxed);
    RunResult result = RunOnce(machine, policy, jobs, seed, engine);
    counters_.inflight.fetch_sub(1, std::memory_order_relaxed);
    counters_.cells_executed.fetch_add(1, std::memory_order_relaxed);
    return result;
  };

  runner_options.store_cell = [&](const SweepCellRef& ref, const RunResult& result) {
    CellEntryMeta meta;
    meta.policy = PolicyKindCliName(ref.policy);
    meta.mix = ref.mix_number;
    meta.replication = ref.replication;
    meta.seed = ref.seed;
    cache_->Store(KeyFor(spec, ref, git_rev_), meta, result);
  };

  runner_options.on_cell = [&](const SweepCellRef& ref, const RunResult&, bool from_cache) {
    ++local.cells;
    if (!from_cache) {
      ++local.executed;
    }
    if (emit) {
      emit("{\"event\":\"cell\",\"sweep\":\"" + local.sweep_key + "\",\"policy\":\"" +
           PolicyKindCliName(ref.policy) + "\",\"mix\":" + std::to_string(ref.mix_number) +
           ",\"rep\":" + std::to_string(ref.replication) +
           ",\"seed\":" + std::to_string(ref.seed) + ",\"source\":\"" +
           (from_cache ? "cache" : "sim") + "\"}");
    }
  };

  try {
    SweepRunner runner(runner_options);
    SweepResult result = runner.Run(spec);
    counters_.cells_planned.fetch_add(local.cells, std::memory_order_relaxed);
    // The document ends in a newline, exactly as the batch runner's
    // WriteFile emits it, so saved responses diff clean against it.
    local.json = result.ToJson() + "\n";
  } catch (const std::exception& e) {
    counters_.errors.fetch_add(1, std::memory_order_relaxed);
    if (error != nullptr) {
      *error = e.what();
    }
    if (emit) {
      emit(WireErrorEvent(e.what()));
    }
    return false;
  }

  if (emit) {
    emit("{\"event\":\"result\",\"sweep\":\"" + local.sweep_key +
         "\",\"cells\":" + std::to_string(local.cells) +
         ",\"hits\":" + std::to_string(local.hits) +
         ",\"executed\":" + std::to_string(local.executed) + ",\"json\":\"" +
         JsonEscape(local.json) + "\"}");
    emit("{\"event\":\"done\",\"sweep\":\"" + local.sweep_key + "\"}");
  }
  if (outcome != nullptr) {
    *outcome = std::move(local);
  }
  return true;
}

std::string SweepService::StatsJson() const {
  const auto load = [](const std::atomic<uint64_t>& v) {
    return std::to_string(v.load(std::memory_order_relaxed));
  };
  std::string service = "{\"submits\":" + load(counters_.submits) +
                        ",\"cells_planned\":" + load(counters_.cells_planned) +
                        ",\"cache_hits\":" + load(counters_.cache_hits) +
                        ",\"cells_executed\":" + load(counters_.cells_executed) +
                        ",\"inflight\":" + load(counters_.inflight) +
                        ",\"errors\":" + load(counters_.errors) + "}";
  return "{\"event\":\"stats\",\"git_rev\":\"" + JsonEscape(git_rev_) +
         "\",\"cache\":" + cache_->StatsJson() + ",\"service\":" + service + "}";
}

}  // namespace affsched
