#include "src/measure/experiment.h"

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/common/rng.h"
#include "src/runner/runner.h"

namespace affsched {
namespace {

std::vector<AppProfile> SmallMixJobs() {
  return {MakeSmallMvaProfile(), MakeSmallGravityProfile()};
}

MachineConfig SmallMachine() {
  MachineConfig config;
  config.num_processors = 8;
  return config;
}

// SmallMixJobs() (mix 3: one MVA, one GRAVITY) under `policy`, replicated by
// the sweep runner.
ReplicatedResult ReplicateSmallMix(PolicyKind policy, size_t min_reps, size_t max_reps) {
  SweepSpec spec;
  spec.machine = SmallMachine();
  spec.apps = {MakeSmallMvaProfile(), MakeSmallMatrixProfile(), MakeSmallGravityProfile()};
  spec.policies = {policy};
  spec.mixes = {WorkloadMix{.number = 3, .mva = 1, .gravity = 1}};
  spec.replication.min_replications = min_reps;
  spec.replication.max_replications = max_reps;
  spec.root_seed = 1;
  return SweepRunner().Run(spec).experiments.front().replicated;
}

// A one-job replication whose response time is `seconds`.
RunResult OneJobRun(double seconds) {
  JobStats stats;
  stats.completion = Seconds(seconds);
  RunResult run;
  run.jobs.push_back(JobResult{"MVA", stats});
  return run;
}

ReplicationOptions Rule(double precision, size_t min_reps, size_t max_reps) {
  ReplicationOptions options;
  options.relative_precision = precision;
  options.min_replications = min_reps;
  options.max_replications = max_reps;
  return options;
}

TEST(ExperimentTest, PaperMachineIsSixteenProcessors) {
  const MachineConfig config = PaperMachineConfig();
  EXPECT_EQ(config.num_processors, 16u);
  EXPECT_DOUBLE_EQ(config.CapacityBlocks(), 4096.0);
}

TEST(ExperimentTest, RunOnceReportsAllJobs) {
  const RunResult result =
      RunOnce(SmallMachine(), PolicyKind::kDynamic, SmallMixJobs(), 1);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].app, "MVA");
  EXPECT_EQ(result.jobs[1].app, "GRAVITY");
  EXPECT_GT(result.makespan, 0);
  for (const JobResult& j : result.jobs) {
    EXPECT_GT(j.stats.ResponseSeconds(), 0.0);
  }
}

TEST(ExperimentTest, RunOnceIsDeterministicPerSeed) {
  const RunResult a = RunOnce(SmallMachine(), PolicyKind::kDynAff, SmallMixJobs(), 5);
  const RunResult b = RunOnce(SmallMachine(), PolicyKind::kDynAff, SmallMixJobs(), 5);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].stats.ResponseSeconds(), b.jobs[i].stats.ResponseSeconds());
  }
}

TEST(ExperimentTest, ReplicationRunsAtLeastMinimum) {
  const ReplicatedResult result = ReplicateSmallMix(PolicyKind::kDynamic, 3, 4);
  EXPECT_GE(result.replications, 3u);
  EXPECT_LE(result.replications, 4u);
  ASSERT_EQ(result.response.size(), 2u);
  EXPECT_EQ(result.response[0].count(), result.replications);
}

TEST(ExperimentTest, MeanStatsAveragedAcrossReplications) {
  const ReplicatedResult result = ReplicateSmallMix(PolicyKind::kDynamic, 3, 3);
  for (size_t j = 0; j < result.mean_stats.size(); ++j) {
    const JobStats& s = result.mean_stats[j];
    EXPECT_GT(s.useful_work_s, 0.0);
    EXPECT_GT(s.reallocations, 0u);
    EXPECT_NEAR(ToSeconds(s.completion), result.response[j].mean(),
                0.05 * result.response[j].mean());
  }
}

TEST(ExperimentTest, AppNamesStableAcrossReplications) {
  const ReplicatedResult result = ReplicateSmallMix(PolicyKind::kEquipartition, 2, 2);
  ASSERT_EQ(result.app.size(), 2u);
  EXPECT_EQ(result.app[0], "MVA");
  EXPECT_EQ(result.app[1], "GRAVITY");
}

TEST(ReplicationFolderTest, StopsWhenPrecise) {
  const ReplicationOptions rule = Rule(0.01, 3, 100);
  ReplicationFolder folder(1);
  // Identical observations: precise immediately after the minimum.
  folder.Fold(OneJobRun(10.0));
  EXPECT_FALSE(folder.Done(rule));
  folder.Fold(OneJobRun(10.0));
  EXPECT_FALSE(folder.Done(rule));
  folder.Fold(OneJobRun(10.0));
  EXPECT_TRUE(folder.Done(rule));
}

TEST(ReplicationFolderTest, KeepsGoingWhenNoisy) {
  const ReplicationOptions rule = Rule(0.001, 2, 1000);
  ReplicationFolder folder(1);
  Rng rng(3);
  for (int i = 0; i < 3; ++i) {
    folder.Fold(OneJobRun(rng.NextNormal(10, 5)));
  }
  EXPECT_FALSE(folder.Done(rule));
}

TEST(ReplicationFolderTest, RespectsMaxCap) {
  const ReplicationOptions rule = Rule(1e-9, 2, 5);
  ReplicationFolder folder(1);
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(folder.Done(rule));
    folder.Fold(OneJobRun(rng.NextNormal(10, 5)));
  }
  EXPECT_TRUE(folder.Done(rule));
}

TEST(ReplicationFolderTest, PaperStoppingRule) {
  // The paper's rule: 95% CI within 1% of the point estimate.
  const ReplicationOptions rule = Rule(0.01, 3, 10000);
  ReplicationFolder folder(1);
  Rng rng(11);
  while (!folder.Done(rule)) {
    folder.Fold(OneJobRun(rng.NextNormal(100.0, 1.0)));
  }
  const ReplicatedResult result = folder.Finish();
  const Summary& s = result.response[0];
  EXPECT_LE(s.ConfidenceHalfWidth(0.95), 0.01 * s.mean());
  EXPECT_LT(folder.replications(), 100u);
}

}  // namespace
}  // namespace affsched
