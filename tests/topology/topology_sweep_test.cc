// End-to-end: hierarchical topologies flow from the sweep spec through the
// machine, engine and accounting into per-tier JobStats counters and the
// sweep JSON — and flat sweeps are untouched by any of it.

#include <gtest/gtest.h>

#include <string>

#include "src/runner/runner.h"
#include "src/runner/sweep.h"
#include "src/topology/topology.h"

namespace affsched {
namespace {

SweepResult RunSpec(const std::string& spec_text) {
  SweepSpec spec;
  std::string error;
  EXPECT_TRUE(ParseSweepSpec(spec_text, &spec, &error)) << error;
  SweepRunnerOptions options;
  options.jobs = 2;
  return SweepRunner(options).Run(spec);
}

// Sums one tier's migrations across every job of every experiment.
uint64_t SumMigrations(const SweepResult& result, size_t tier) {
  uint64_t total = 0;
  for (const ExperimentResult& experiment : result.experiments) {
    for (const JobStats& stats : experiment.replicated.mean_stats) {
      total += stats.migrations[tier];
    }
  }
  return total;
}

template <typename Field>
double SumStatD(const SweepResult& result, Field field) {
  double total = 0.0;
  for (const ExperimentResult& experiment : result.experiments) {
    for (const JobStats& stats : experiment.replicated.mean_stats) {
      total += stats.*field;
    }
  }
  return total;
}

TEST(TopologySweepTest, CmpSweepAttributesClusterMigrationsAndLlcReloads) {
  const SweepResult result =
      RunSpec("smoke;reps=1;mixes=5;policies=dyn-aff;topology=cmp-2x10");
  // Under cmp-2x10 a move is same-cluster (tier 1) or cross-cluster
  // (tier 2, the single shared node); both occur in a mix-5 run.
  EXPECT_GT(SumMigrations(result, 1), 0u);
  EXPECT_GT(SumMigrations(result, 2), 0u);
  EXPECT_EQ(SumMigrations(result, 3), 0u);  // one node
  // Same-cluster moves refill from the shared LLC.
  EXPECT_GT(SumStatD(result, &JobStats::reload_llc_s), 0.0);
  EXPECT_DOUBLE_EQ(SumStatD(result, &JobStats::reload_remote_s), 0.0);

  const std::string json = result.ToJson();
  EXPECT_NE(json.find("\"topology\":\"name=cmp-2x10"), std::string::npos);
  EXPECT_NE(json.find("\"migrations\":{\"same_core\":"), std::string::npos);
  EXPECT_NE(json.find("\"reload_llc_s\":"), std::string::npos);
}

TEST(TopologySweepTest, NumaSweepPaysRemoteFills) {
  const SweepResult result =
      RunSpec("smoke;reps=1;mixes=5;policies=dyn-aff;procs=32;topology=numa-4x8");
  EXPECT_GT(SumMigrations(result, 3), 0u);
  EXPECT_GT(SumStatD(result, &JobStats::reload_remote_s), 0.0);
}

TEST(TopologySweepTest, FlatSweepJsonCarriesNoTopologyBlocks) {
  const SweepResult result = RunSpec("smoke;reps=1;mixes=1;policies=dyn-aff");
  const std::string json = result.ToJson();
  EXPECT_EQ(json.find("\"topology\""), std::string::npos);
  EXPECT_EQ(json.find("\"migrations\""), std::string::npos);
  EXPECT_EQ(json.find("\"reload_llc_s\""), std::string::npos);
}

TEST(TopologySweepTest, CellSeedsIgnoreTheTopologyAxis) {
  // Common random numbers: the same cell coordinates draw the same seeds on
  // every topology, so topology comparisons are paired.
  const SweepResult flat = RunSpec("smoke;reps=1;mixes=5;policies=dyn-aff");
  const SweepResult cmp = RunSpec("smoke;reps=1;mixes=5;policies=dyn-aff;topology=cmp-2x10");
  ASSERT_EQ(flat.experiments.size(), cmp.experiments.size());
  for (size_t e = 0; e < flat.experiments.size(); ++e) {
    ASSERT_EQ(flat.experiments[e].cells.size(), cmp.experiments[e].cells.size());
    for (size_t c = 0; c < flat.experiments[e].cells.size(); ++c) {
      EXPECT_EQ(flat.experiments[e].cells[c].seed, cmp.experiments[e].cells[c].seed);
    }
  }
}

TEST(TopologySweepTest, DistanceAwarePoliciesRunOnHierarchies) {
  const SweepResult result = RunSpec(
      "smoke;reps=1;mixes=5;policies=dyn-aff-cluster,dyn-aff-node;topology=numa-4x8;procs=32");
  ASSERT_EQ(result.experiments.size(), 2u);
  for (const ExperimentResult& experiment : result.experiments) {
    for (size_t j = 0; j < experiment.replicated.app.size(); ++j) {
      EXPECT_GT(experiment.replicated.MeanResponse(j), 0.0);
    }
  }
}

TEST(TopologySweepTest, ParseRejectsInvalidTopologies) {
  SweepSpec spec;
  std::string error;
  EXPECT_FALSE(ParseSweepSpec("smoke;topology=no-such-preset", &spec, &error));
  EXPECT_NE(error.find("unknown topology preset"), std::string::npos);
  // Machine-level validation runs at the end of the parse.
  EXPECT_FALSE(ParseSweepSpec("smoke;topology=cmp-2x10,llc-factor=0", &spec, &error));
  EXPECT_NE(error.find("llc-factor"), std::string::npos);
}

}  // namespace
}  // namespace affsched
