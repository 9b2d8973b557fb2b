#include "src/opensys/arrival_process.h"

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/engine/engine.h"
#include "src/sched/factory.h"

namespace affsched {
namespace {

TEST(ArrivalsTest, GeneratesRequestedCountSorted) {
  const auto plan = PoissonArrivals(50, Seconds(2), {1.0, 1.0, 1.0}, 9);
  ASSERT_EQ(plan.size(), 50u);
  for (size_t i = 1; i < plan.size(); ++i) {
    EXPECT_GE(plan[i].when, plan[i - 1].when);
  }
}

TEST(ArrivalsTest, MeanInterarrivalApproximatelyMatches) {
  const auto plan = PoissonArrivals(2000, Seconds(3), {1.0}, 10);
  const double mean = ToSeconds(plan.back().when) / static_cast<double>(plan.size());
  EXPECT_NEAR(mean, 3.0, 0.25);
}

TEST(ArrivalsTest, WeightsSteerAppMix) {
  const auto plan = PoissonArrivals(3000, Seconds(1), {8.0, 1.0, 1.0}, 11);
  size_t counts[3] = {0, 0, 0};
  for (const auto& entry : plan) {
    ASSERT_LT(entry.app_index, 3u);
    ++counts[entry.app_index];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / 3000.0, 0.8, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 3000.0, 0.1, 0.03);
}

TEST(ArrivalsTest, DeterministicPerSeed) {
  const auto a = PoissonArrivals(20, Seconds(1), {1.0, 2.0}, 12);
  const auto b = PoissonArrivals(20, Seconds(1), {1.0, 2.0}, 12);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].when, b[i].when);
    EXPECT_EQ(a[i].app_index, b[i].app_index);
  }
}

TEST(ArrivalsTest, PlanDrivesEngineToCompletion) {
  MachineConfig machine;
  machine.num_processors = 4;
  const std::vector<AppProfile> apps = {MakeSmallMvaProfile(), MakeSmallGravityProfile()};
  const auto plan = PoissonArrivals(4, Seconds(1), {1.0, 1.0}, 13);
  Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 13);
  for (const auto& entry : plan) {
    engine.SubmitJob(apps[entry.app_index], entry.when);
  }
  const SimTime end = engine.Run();
  EXPECT_GT(end, plan.back().when);
  for (JobId id = 0; id < engine.job_count(); ++id) {
    EXPECT_GE(engine.job_stats(id).completion, 0);
  }
}

TEST(ArrivalsTest, HorizonBoundedGenerationStopsBeforeTEnd) {
  const SimTime t_end = Seconds(100);
  PoissonProcess process(Seconds(2), {1.0});
  const auto plan = GenerateArrivals(process, 14, /*max_count=*/0, t_end);
  ASSERT_FALSE(plan.empty());
  for (const auto& entry : plan) {
    EXPECT_LT(entry.when, t_end);
  }
  // ~50 expected; a wildly different count would mean the horizon is ignored.
  EXPECT_GT(plan.size(), 25u);
  EXPECT_LT(plan.size(), 90u);
}

TEST(ArrivalsTest, CountAndHorizonBoundsCompose) {
  PoissonProcess process(Seconds(1), {1.0});
  const auto by_count = GenerateArrivals(process, 15, /*max_count=*/10, /*t_end=*/0);
  EXPECT_EQ(by_count.size(), 10u);
  const auto both = GenerateArrivals(process, 15, /*max_count=*/10, Seconds(3));
  EXPECT_LE(both.size(), 10u);
  for (const auto& entry : both) {
    EXPECT_LT(entry.when, Seconds(3));
  }
}

TEST(ArrivalsTest, ResetReplaysIdenticalStream) {
  PoissonProcess process(Seconds(1), {1.0, 1.0});
  const auto a = GenerateArrivals(process, 77, 25, 0);
  const auto b = GenerateArrivals(process, 77, 25, 0);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].when, b[i].when);
    EXPECT_EQ(a[i].app_index, b[i].app_index);
  }
}

TEST(OnOffTest, LongRunRateMatchesConfiguredMean) {
  // On-phase rate 4x the target, on fraction 1/4: the long-run mean
  // inter-arrival should approach 2s.
  OnOffProcess::Params params;
  params.on_interarrival = Seconds(0.5);
  params.mean_on = Seconds(6);
  params.mean_off = Seconds(18);
  OnOffProcess process(params, {1.0});
  const auto plan = GenerateArrivals(process, 21, 8000, 0);
  const double mean = ToSeconds(plan.back().when) / static_cast<double>(plan.size());
  EXPECT_NEAR(mean, 2.0, 0.3);
}

TEST(OnOffTest, BurstierThanPoissonAtSameRate) {
  // Squared coefficient of variation of inter-arrival times: 1 for Poisson,
  // substantially above 1 for the on/off process.
  OnOffProcess::Params params;
  params.on_interarrival = Seconds(0.5);
  params.mean_on = Seconds(6);
  params.mean_off = Seconds(18);
  OnOffProcess process(params, {1.0});
  const auto plan = GenerateArrivals(process, 22, 6000, 0);
  double sum = 0.0;
  double sumsq = 0.0;
  SimTime prev = 0;
  for (const auto& entry : plan) {
    const double gap = ToSeconds(entry.when - prev);
    prev = entry.when;
    sum += gap;
    sumsq += gap * gap;
  }
  const double n = static_cast<double>(plan.size());
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_GT(var / (mean * mean), 1.5);
}

TEST(ArrivalsDeathTest, EmptyWeightsAbort) {
  EXPECT_DEATH(PoissonArrivals(1, Seconds(1), {}, 1), "empty");
}

TEST(ArrivalsDeathTest, NegativeWeightAborts) {
  EXPECT_DEATH(PoissonArrivals(1, Seconds(1), {1.0, -0.5}, 1), "negative");
}

TEST(ArrivalsDeathTest, AllZeroWeightsAbort) {
  EXPECT_DEATH(PoissonArrivals(1, Seconds(1), {0.0, 0.0}, 1), "zero");
}

TEST(ArrivalsDeathTest, UnboundedGenerationAborts) {
  PoissonProcess process(Seconds(1), {1.0});
  EXPECT_DEATH(GenerateArrivals(process, 1, 0, 0), "unbounded");
}

}  // namespace
}  // namespace affsched
