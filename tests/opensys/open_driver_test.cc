#include "src/opensys/driver.h"

#include <gtest/gtest.h>

#include "src/apps/apps.h"

namespace affsched {
namespace {

std::vector<AppProfile> SmallApps() {
  return {MakeSmallMvaProfile(), MakeSmallGravityProfile()};
}

MachineConfig SmallMachine() {
  MachineConfig machine;
  machine.num_processors = 4;
  return machine;
}

// A burst of near-simultaneous arrivals, so MPL caps actually bite.
std::vector<ArrivalPlanEntry> BurstPlan(size_t count) {
  std::vector<ArrivalPlanEntry> plan;
  for (size_t i = 0; i < count; ++i) {
    plan.push_back(ArrivalPlanEntry{i % 2, Seconds(0.01 * static_cast<double>(i))});
  }
  return plan;
}

TEST(OpenDriverTest, UnboundedAdmissionRunsEveryArrival) {
  AdmissionController admission(0, -1);
  OpenSystemDriver driver(SmallMachine(), PolicyKind::kDynAff, SmallApps(), BurstPlan(6),
                          &admission, 42);
  const OpenSystemResult result = driver.Run();
  EXPECT_EQ(result.arrivals, 6u);
  EXPECT_EQ(result.admitted, 6u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.completed, 6u);
  EXPECT_DOUBLE_EQ(result.reject_rate, 0.0);
  // No admission queue: sojourn is pure in-service response.
  for (const OpenJobRecord& rec : result.jobs) {
    EXPECT_FALSE(rec.rejected);
    EXPECT_DOUBLE_EQ(rec.queue_wait_s, 0.0);
    EXPECT_EQ(rec.admitted, rec.arrival);
    EXPECT_GT(rec.sojourn_s, 0.0);
  }
  EXPECT_DOUBLE_EQ(result.mean_queue_len, 0.0);
  EXPECT_TRUE(result.littles.ok) << "rel_err=" << result.littles.relative_error;
  EXPECT_GT(result.mean_sojourn_s, 0.0);
  EXPECT_GE(result.p99_sojourn_s, result.p50_sojourn_s);
  EXPECT_GE(result.max_sojourn_s, result.p99_sojourn_s);
}

TEST(OpenDriverTest, MplCapQueuesAndAccountsWaitSeparately) {
  AdmissionController admission(1, -1);
  OpenSystemDriver driver(SmallMachine(), PolicyKind::kDynAff, SmallApps(), BurstPlan(4),
                          &admission, 42);
  const OpenSystemResult result = driver.Run();
  EXPECT_EQ(result.admitted, 4u);
  EXPECT_EQ(result.rejected, 0u);
  // The first job enters immediately; later ones must have queued behind it.
  EXPECT_DOUBLE_EQ(result.jobs[0].queue_wait_s, 0.0);
  EXPECT_GT(result.jobs[3].queue_wait_s, 0.0);
  EXPECT_GT(result.mean_queue_len, 0.0);
  EXPECT_GT(result.mean_queue_wait_s, 0.0);
  for (const OpenJobRecord& rec : result.jobs) {
    EXPECT_GE(rec.admitted, rec.arrival);
    // Sojourn decomposes into queue wait plus in-service response.
    const double in_service_s = ToSeconds(rec.completion - rec.admitted);
    EXPECT_NEAR(rec.sojourn_s, rec.queue_wait_s + in_service_s, 1e-9);
  }
  // Serialized through MPL 1: completions never overlap admissions.
  EXPECT_TRUE(result.littles.ok) << "rel_err=" << result.littles.relative_error;
}

TEST(OpenDriverTest, LoadSheddingRejectsExcessArrivals) {
  AdmissionController admission(1, 0);
  OpenSystemDriver driver(SmallMachine(), PolicyKind::kDynAff, SmallApps(), BurstPlan(5),
                          &admission, 42);
  const OpenSystemResult result = driver.Run();
  EXPECT_GT(result.rejected, 0u);
  EXPECT_EQ(result.admitted + result.rejected, 5u);
  EXPECT_EQ(result.completed, result.admitted);
  EXPECT_GT(result.reject_rate, 0.0);
  for (const OpenJobRecord& rec : result.jobs) {
    if (rec.rejected) {
      EXPECT_EQ(rec.completion, -1);
      EXPECT_EQ(rec.admitted, -1);
    }
  }
  // Rejected jobs sit on neither side of L = lambda * W.
  EXPECT_TRUE(result.littles.ok) << "rel_err=" << result.littles.relative_error;
}

TEST(OpenDriverTest, DeterministicForAGivenSeed) {
  auto run = [] {
    AdmissionController admission(0, -1);
    OpenSystemDriver driver(SmallMachine(), PolicyKind::kDynamic, SmallApps(), BurstPlan(5),
                            &admission, 7);
    return driver.Run();
  };
  const OpenSystemResult a = run();
  const OpenSystemResult b = run();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].completion, b.jobs[i].completion);
    EXPECT_DOUBLE_EQ(a.jobs[i].sojourn_s, b.jobs[i].sojourn_s);
  }
  EXPECT_DOUBLE_EQ(a.mean_sojourn_s, b.mean_sojourn_s);
  EXPECT_DOUBLE_EQ(a.p95_sojourn_s, b.p95_sojourn_s);
}

TEST(OpenDriverTest, WarmupFractionTrimsReportedStatsOnly) {
  OpenSystemOptions options;
  options.warmup_fraction = 0.5;
  AdmissionController admission(0, -1);
  OpenSystemDriver driver(SmallMachine(), PolicyKind::kDynAff, SmallApps(), BurstPlan(6),
                          &admission, 42, options);
  const OpenSystemResult result = driver.Run();
  EXPECT_EQ(result.warmup_trimmed, 3u);
  // The Little's-law check still covers the full window.
  EXPECT_TRUE(result.littles.ok);
}

TEST(OpenDriverTest, EmptyPlanDrainsImmediately) {
  AdmissionController admission(0, -1);
  OpenSystemDriver driver(SmallMachine(), PolicyKind::kDynAff, SmallApps(), {}, &admission, 42);
  const OpenSystemResult result = driver.Run();
  EXPECT_EQ(result.arrivals, 0u);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_TRUE(result.littles.ok);
}

TEST(MserTest, FewSamplesReturnZero) {
  EXPECT_EQ(MserTruncationPoint({}), 0u);
  EXPECT_EQ(MserTruncationPoint({1.0, 2.0, 3.0}), 0u);
}

TEST(MserTest, TrimsInflatedTransientPrefix) {
  // A cold-start transient (large values) followed by a tight steady state:
  // truncating the prefix minimizes the standard error of the tail.
  std::vector<double> samples = {50.0, 40.0, 30.0};
  for (int i = 0; i < 40; ++i) {
    samples.push_back(5.0 + 0.01 * static_cast<double>(i % 3));
  }
  const size_t d = MserTruncationPoint(samples);
  EXPECT_GE(d, 3u);
  EXPECT_LE(d, samples.size() / 2);
}

TEST(MserTest, SteadySamplesNeedNoTrim) {
  std::vector<double> samples(50, 2.5);
  EXPECT_EQ(MserTruncationPoint(samples), 0u);
}

TEST(OpenDriverDeathTest, RunTwiceAborts) {
  AdmissionController admission(0, -1);
  OpenSystemDriver driver(SmallMachine(), PolicyKind::kDynAff, SmallApps(), BurstPlan(2),
                          &admission, 42);
  driver.Run();
  EXPECT_DEATH(driver.Run(), "at most once");
}

TEST(OpenDriverDeathTest, UnsortedPlanAborts) {
  AdmissionController admission(0, -1);
  std::vector<ArrivalPlanEntry> plan = {{0, Seconds(2)}, {0, Seconds(1)}};
  EXPECT_DEATH(OpenSystemDriver(SmallMachine(), PolicyKind::kDynAff, SmallApps(),
                                std::move(plan), &admission, 42),
               "sorted");
}

}  // namespace
}  // namespace affsched
