#include "src/runner/runner.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/runner/cell_seed.h"
#include "tests/serve/json_testing.h"

namespace affsched {
namespace {

// A grid small enough for unit tests: scaled-down app profiles on an
// 8-processor machine, 2 policies x 2 mixes x 2 fixed replications.
SweepSpec TinySpec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.machine.num_processors = 8;
  spec.apps = {MakeSmallMvaProfile(), MakeSmallMatrixProfile(), MakeSmallGravityProfile()};
  spec.policies = {PolicyKind::kEquipartition, PolicyKind::kDynAff};
  spec.mixes = {WorkloadMix{.number = 1, .mva = 2, .matrix = 0, .gravity = 0},
                WorkloadMix{.number = 5, .mva = 0, .matrix = 1, .gravity = 1}};
  spec.replication.min_replications = 2;
  spec.replication.max_replications = 2;
  spec.root_seed = 7;
  return spec;
}

TEST(SweepRunnerTest, RunsEveryExperimentInGridOrder) {
  SweepRunner runner;
  const SweepResult result = runner.Run(TinySpec());
  ASSERT_EQ(result.experiments.size(), 4u);  // mix-major, then policy
  EXPECT_EQ(result.experiments[0].mix.number, 1);
  EXPECT_EQ(result.experiments[0].policy, PolicyKind::kEquipartition);
  EXPECT_EQ(result.experiments[1].mix.number, 1);
  EXPECT_EQ(result.experiments[1].policy, PolicyKind::kDynAff);
  EXPECT_EQ(result.experiments[2].mix.number, 5);
  EXPECT_EQ(result.experiments[3].mix.number, 5);
  for (const ExperimentResult& experiment : result.experiments) {
    EXPECT_EQ(experiment.replicated.replications, 2u);
    ASSERT_EQ(experiment.cells.size(), 2u);
    for (size_t j = 0; j < experiment.replicated.app.size(); ++j) {
      EXPECT_GT(experiment.replicated.MeanResponse(j), 0.0);
    }
  }
}

TEST(SweepRunnerTest, ParallelAndSerialJsonAreByteIdentical) {
  SweepRunnerOptions serial;
  serial.jobs = 1;
  SweepRunnerOptions parallel;
  parallel.jobs = 8;
  const SweepResult a = SweepRunner(serial).Run(TinySpec());
  const SweepResult b = SweepRunner(parallel).Run(TinySpec());
  const std::string ja = a.ToJson();
  const std::string jb = b.ToJson();
  EXPECT_TRUE(ParsesAsJson(ja));
  EXPECT_EQ(ja, jb);  // bit-identical results at any worker count
}

TEST(SweepRunnerTest, CellSeedsAreDerivedNotSequential) {
  const SweepSpec spec = TinySpec();
  const SweepResult result = SweepRunner().Run(spec);
  for (const ExperimentResult& experiment : result.experiments) {
    for (const CellResult& cell : experiment.cells) {
      EXPECT_EQ(cell.seed,
                DeriveCellSeed(spec.root_seed, experiment.mix.number, cell.replication));
    }
  }
}

// The paper compares policies under common random numbers: both policies'
// cells for a given (mix, replication) must use the same seed, so policy
// choice never perturbs the workload draw.
TEST(SweepRunnerTest, PoliciesShareSeedsWithinAMix) {
  const SweepResult result = SweepRunner().Run(TinySpec());
  const ExperimentResult* equi = result.Find(PolicyKind::kEquipartition, 1);
  const ExperimentResult* aff = result.Find(PolicyKind::kDynAff, 1);
  ASSERT_NE(equi, nullptr);
  ASSERT_NE(aff, nullptr);
  ASSERT_EQ(equi->cells.size(), aff->cells.size());
  for (size_t c = 0; c < equi->cells.size(); ++c) {
    EXPECT_EQ(equi->cells[c].seed, aff->cells[c].seed);
  }
}

TEST(SweepRunnerTest, MatchesSerialReplicationFolding) {
  // The runner's aggregate for one experiment must equal folding the same
  // cells through the serial ReplicationFolder — same seeds, same order.
  const SweepSpec spec = TinySpec();
  const SweepResult result = SweepRunner().Run(spec);
  const ExperimentResult* experiment = result.Find(PolicyKind::kDynAff, 5);
  ASSERT_NE(experiment, nullptr);
  const std::vector<AppProfile> jobs = spec.mixes[1].Expand(spec.apps);
  ReplicationFolder folder(jobs.size());
  for (size_t rep = 0; rep < 2; ++rep) {
    folder.Fold(RunOnce(spec.machine, PolicyKind::kDynAff, jobs,
                        DeriveCellSeed(spec.root_seed, 5, rep), spec.engine));
  }
  const ReplicatedResult expected = folder.Finish();
  for (size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_DOUBLE_EQ(experiment->replicated.MeanResponse(j), expected.MeanResponse(j));
    EXPECT_EQ(experiment->replicated.mean_stats[j].reallocations,
              expected.mean_stats[j].reallocations);
  }
}

TEST(SweepRunnerTest, AdaptiveReplicationStaysWithinBounds) {
  SweepSpec spec = TinySpec();
  spec.replication.min_replications = 2;
  spec.replication.max_replications = 4;
  spec.replication.relative_precision = 1e-9;  // unreachable: drives to the cap
  const SweepResult result = SweepRunner().Run(spec);
  for (const ExperimentResult& experiment : result.experiments) {
    EXPECT_EQ(experiment.replicated.replications, 4u);
    EXPECT_EQ(experiment.cells.size(), 4u);
  }
}

TEST(SweepRunnerTest, ThrowingCellPropagatesAfterCleanShutdown) {
  SweepRunnerOptions options;
  options.jobs = 4;
  options.run_cell = [](const SweepCellRef&, const MachineConfig& machine, PolicyKind policy,
                        const std::vector<AppProfile>& jobs, uint64_t seed,
                        const EngineOptions& engine_options) -> RunResult {
    if (policy == PolicyKind::kDynAff) {
      throw std::runtime_error("injected cell failure");
    }
    return RunOnce(machine, policy, jobs, seed, engine_options);
  };
  SweepRunner runner(options);
  // Every in-flight cell finishes, the pool joins, and the exception
  // surfaces — no hang, no abort.
  EXPECT_THROW(runner.Run(TinySpec()), std::runtime_error);
}

TEST(SweepRunnerTest, ProgressReportsMonotonicCompletion) {
  SweepRunnerOptions options;
  options.jobs = 2;
  std::vector<size_t> completions;
  options.progress = [&completions](size_t completed, size_t) {
    completions.push_back(completed);
  };
  SweepRunner(options).Run(TinySpec());
  ASSERT_FALSE(completions.empty());
  for (size_t i = 1; i < completions.size(); ++i) {
    EXPECT_GE(completions[i], completions[i - 1]);
  }
  EXPECT_EQ(completions.back(), 8u);  // 2 policies x 2 mixes x 2 reps
}

TEST(SweepRunnerTest, JsonCarriesSchemaAndRatios) {
  const SweepResult result = SweepRunner().Run(TinySpec());
  const std::string json = result.ToJson();
  EXPECT_TRUE(ParsesAsJson(json));
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"relative_response\":["), std::string::npos);  // equi in grid
  EXPECT_NE(json.find("\"policy\":\"dyn-aff\""), std::string::npos);
}

TEST(SweepRunnerTest, ObservabilityOptInEmitsSchema3Block) {
  SweepSpec spec = TinySpec();
  spec.observability = true;
  const std::string json = SweepRunner().Run(spec).ToJson();
  EXPECT_TRUE(ParsesAsJson(json));
  EXPECT_NE(json.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(json.find("\"observability\":{"), std::string::npos);
  EXPECT_NE(json.find("\"reload_transient_fraction\""), std::string::npos);
  EXPECT_NE(json.find("\"affine_fraction\""), std::string::npos);
  EXPECT_NE(json.find("\"migrations\""), std::string::npos);

  // Off by default: the plain document stays schema 1 with no block, so the
  // golden baselines remain byte-identical.
  const std::string plain = SweepRunner().Run(TinySpec()).ToJson();
  EXPECT_NE(plain.find("\"schema_version\":1"), std::string::npos);
  EXPECT_EQ(plain.find("\"observability\""), std::string::npos);
}

TEST(SweepRunnerTest, ProbeHitsSkipSimulationWithoutChangingResults) {
  // First pass: run everything, recording each cell's result by identity.
  std::map<std::string, RunResult> recorded;
  std::mutex mu;
  SweepRunnerOptions record;
  record.jobs = 4;
  record.store_cell = [&](const SweepCellRef& ref, const RunResult& result) {
    std::lock_guard<std::mutex> lock(mu);
    recorded[std::to_string(ref.mix_number) + "/" + PolicyKindCliName(ref.policy) + "/" +
             std::to_string(ref.replication)] = result;
  };
  const std::string baseline = SweepRunner(record).Run(TinySpec()).ToJson();
  EXPECT_EQ(recorded.size(), 8u);

  // Second pass: every cell is answered by the probe; run_cell must never be
  // called, and the folded document must be byte-identical.
  size_t probes = 0;
  SweepRunnerOptions cached;
  cached.jobs = 4;
  cached.probe_cell = [&](const SweepCellRef& ref, RunResult* out) {
    ++probes;
    *out = recorded.at(std::to_string(ref.mix_number) + "/" + PolicyKindCliName(ref.policy) +
                       "/" + std::to_string(ref.replication));
    return true;
  };
  cached.run_cell = [](const SweepCellRef&, const MachineConfig&, PolicyKind,
                       const std::vector<AppProfile>&, uint64_t,
                       const EngineOptions&) -> RunResult {
    ADD_FAILURE() << "run_cell called despite universal probe hits";
    return RunResult{};
  };
  EXPECT_EQ(SweepRunner(cached).Run(TinySpec()).ToJson(), baseline);
  EXPECT_EQ(probes, 8u);
}

TEST(SweepRunnerTest, OnCellStreamsInDeterministicFoldOrder) {
  // A partial cache: mix 1 hits, mix 5 misses. The stream must arrive in
  // fold order (mix-major, then policy, then replication) regardless, with
  // from_cache telling the two sources apart.
  std::map<std::string, RunResult> recorded;
  std::mutex mu;
  SweepRunnerOptions record;
  record.jobs = 4;
  record.store_cell = [&](const SweepCellRef& ref, const RunResult& result) {
    std::lock_guard<std::mutex> lock(mu);
    recorded[std::to_string(ref.mix_number) + "/" + PolicyKindCliName(ref.policy) + "/" +
             std::to_string(ref.replication)] = result;
  };
  SweepRunner(record).Run(TinySpec());

  std::vector<std::string> stream;
  size_t cache_hits = 0;
  SweepRunnerOptions partial;
  partial.jobs = 4;
  partial.probe_cell = [&](const SweepCellRef& ref, RunResult* out) {
    if (ref.mix_number != 1) {
      return false;
    }
    *out = recorded.at("1/" + std::string(PolicyKindCliName(ref.policy)) + "/" +
                       std::to_string(ref.replication));
    return true;
  };
  partial.on_cell = [&](const SweepCellRef& ref, const RunResult&, bool from_cache) {
    stream.push_back(std::to_string(ref.mix_number) + "/" + PolicyKindCliName(ref.policy) +
                     "/" + std::to_string(ref.replication));
    EXPECT_EQ(from_cache, ref.mix_number == 1);
    cache_hits += from_cache ? 1 : 0;
  };
  SweepRunner(partial).Run(TinySpec());
  const std::vector<std::string> want = {"1/equi/0",    "1/equi/1",    "1/dyn-aff/0",
                                         "1/dyn-aff/1", "5/equi/0",    "5/equi/1",
                                         "5/dyn-aff/0", "5/dyn-aff/1"};
  EXPECT_EQ(stream, want);
  EXPECT_EQ(cache_hits, 4u);
}

TEST(SweepRunnerTest, StoreCellNeverFiresForProbeHits) {
  std::mutex mu;
  size_t stores = 0;
  SweepRunnerOptions options;
  options.jobs = 4;
  options.probe_cell = [](const SweepCellRef& ref, RunResult* out) {
    if (ref.mix_number != 1) {
      return false;
    }
    *out = RunResult{};  // a synthetic-but-valid result is fine for the fold
    out->jobs.resize(2);
    for (JobResult& job : out->jobs) {
      job.stats.completion = 1000000000;  // folders require completed jobs
    }
    out->makespan = 1000000000;
    return true;
  };
  options.store_cell = [&](const SweepCellRef& ref, const RunResult&) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_NE(ref.mix_number, 1);  // hits checkpoint nothing
    ++stores;
  };
  SweepRunner(options).Run(TinySpec());
  EXPECT_EQ(stores, 4u);  // only mix 5's simulated cells
}

}  // namespace
}  // namespace affsched
