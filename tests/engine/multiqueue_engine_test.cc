// Engine integration for the multi-queue family: steal/balance accounting
// mechanics via the core harness, tier-limited steal counters in full runs,
// and the no-steal baseline against the centralized Dyn-Aff on a flat
// machine.

#include <gtest/gtest.h>

#include <vector>

#include "src/apps/apps.h"
#include "src/common/check.h"
#include "src/common/time.h"
#include "src/measure/experiment.h"
#include "src/measure/mixes.h"
#include "src/topology/topology.h"
#include "tests/engine/core_harness.h"

namespace affsched {
namespace {

uint64_t TotalSteals(const JobStats& stats) {
  uint64_t total = 0;
  for (uint64_t steals : stats.steals) {
    total += steals;
  }
  return total;
}

TEST(MultiQueueEngineTest, RealisedStealAssignmentBumpsTheTierCounter) {
  CoreHarness h(2);
  const JobId a = h.AddActiveJob(1, Milliseconds(4));

  PolicyDecision decision;
  decision.assignments.push_back(
      Assignment{0, a, kNoOwner, DecisionReason::kSteal, /*steal_tier=*/1});
  h.alloc.ApplyDecision(decision, DecisionSite::kProcessorAvailable);

  const JobStats& stats = h.core.job_state(a).job->stats();
  EXPECT_EQ(stats.steals[0], 0u);
  EXPECT_EQ(stats.steals[1], 1u);
  EXPECT_EQ(stats.steals[2], 0u);
  EXPECT_EQ(stats.steals[3], 0u);

  // Re-granting the processor to its current holder is a no-op and must not
  // double-count the steal.
  h.alloc.ApplyDecision(decision, DecisionSite::kProcessorAvailable);
  EXPECT_EQ(stats.steals[1], 1u);
}

TEST(MultiQueueEngineTest, BalanceMigrateAssignmentBumpsTheBalanceCounter) {
  CoreHarness h(2);
  const JobId a = h.AddActiveJob(1, Milliseconds(4));

  PolicyDecision decision;
  decision.assignments.push_back(
      Assignment{1, a, kNoOwner, DecisionReason::kBalanceMigrate});
  h.alloc.ApplyDecision(decision, DecisionSite::kBalanceTick);

  const JobStats& stats = h.core.job_state(a).job->stats();
  EXPECT_EQ(stats.balance_migrations, 1u);
  EXPECT_EQ(TotalSteals(stats), 0u);
}

MachineConfig NumaMachine() {
  MachineConfig machine = PaperMachineConfig();
  std::string error;
  AFF_CHECK_MSG(ParseTopologySpec("numa-4x8,cores-per-cluster=4,clusters-per-node=2",
                                  &machine.topology, &error),
                error.c_str());
  return machine;
}

uint64_t TotalStealsAcrossJobs(const RunResult& run, size_t tier) {
  uint64_t total = 0;
  for (const JobResult& job : run.jobs) {
    total += job.stats.steals[tier];
  }
  return total;
}

TEST(MultiQueueEngineTest, StealCountersStayWithinTheRadius) {
  const MachineConfig machine = NumaMachine();
  const std::vector<AppProfile> jobs = PaperMixes()[4].Expand(DefaultProfiles());

  const RunResult sibling = RunOnce(machine, PolicyKind::kMqSibling, jobs, /*seed=*/42);
  EXPECT_GT(TotalStealsAcrossJobs(sibling, 1), 0u);
  EXPECT_EQ(TotalStealsAcrossJobs(sibling, 2), 0u);
  EXPECT_EQ(TotalStealsAcrossJobs(sibling, 3), 0u);

  const RunResult numa = RunOnce(machine, PolicyKind::kMqNuma, jobs, /*seed=*/42);
  EXPECT_GT(TotalStealsAcrossJobs(numa, 3), 0u);
}

TEST(MultiQueueEngineTest, NoStealBaselineNeverSteals) {
  const std::vector<AppProfile> jobs = PaperMixes()[4].Expand(DefaultProfiles());
  const RunResult run = RunOnce(NumaMachine(), PolicyKind::kMqNoSteal, jobs, /*seed=*/42);
  for (const JobResult& job : run.jobs) {
    EXPECT_EQ(TotalSteals(job.stats), 0u);
    EXPECT_EQ(job.stats.balance_migrations, 0u);
  }
}

TEST(MultiQueueEngineTest, NoStealTracksDynAffOnTheFlatMachine) {
  // Same workload draw (common random numbers: graphs come from the engine
  // RNG at submission, which depends only on the seed and submission order),
  // so useful work is identical and responses stay comparable — per-queue
  // scheduling reshuffles waiting, not work.
  const MachineConfig machine = PaperMachineConfig();
  const std::vector<AppProfile> jobs = PaperMixes()[4].Expand(DefaultProfiles());
  const RunResult mq = RunOnce(machine, PolicyKind::kMqNoSteal, jobs, /*seed=*/42);
  const RunResult dyn = RunOnce(machine, PolicyKind::kDynAff, jobs, /*seed=*/42);
  ASSERT_EQ(mq.jobs.size(), dyn.jobs.size());
  for (size_t j = 0; j < mq.jobs.size(); ++j) {
    EXPECT_NEAR(mq.jobs[j].stats.useful_work_s, dyn.jobs[j].stats.useful_work_s, 1e-6);
    const double ratio =
        mq.jobs[j].stats.ResponseSeconds() / dyn.jobs[j].stats.ResponseSeconds();
    EXPECT_GT(ratio, 1.0 / 3.0) << mq.jobs[j].app;
    EXPECT_LT(ratio, 3.0) << mq.jobs[j].app;
    EXPECT_EQ(TotalSteals(mq.jobs[j].stats), 0u);
  }
}

TEST(MultiQueueEngineTest, BalanceIntervalOverrideDrivesTheTick) {
  // With a 5 ms engine-level override the balance tick runs even though the
  // policy's own interval is 0; with neither, it never fires. The tick is a
  // no-op on balanced queues, so both runs stay byte-identical in stats —
  // this pins that an idle balance tick does not perturb the trajectory.
  const std::vector<AppProfile> jobs = PaperMixes()[4].Expand(DefaultProfiles());
  EngineOptions with_tick;
  with_tick.balance_interval = Milliseconds(5);
  const RunResult ticked =
      RunOnce(PaperMachineConfig(), PolicyKind::kMqNoSteal, jobs, /*seed=*/42, with_tick);
  const RunResult plain =
      RunOnce(PaperMachineConfig(), PolicyKind::kMqNoSteal, jobs, /*seed=*/42);
  ASSERT_EQ(ticked.jobs.size(), plain.jobs.size());
  for (size_t j = 0; j < ticked.jobs.size(); ++j) {
    EXPECT_DOUBLE_EQ(ticked.jobs[j].stats.ResponseSeconds(),
                     plain.jobs[j].stats.ResponseSeconds());
    EXPECT_EQ(ticked.jobs[j].stats.balance_migrations, 0u);
  }
}

}  // namespace
}  // namespace affsched
