#include "src/stats/summary.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"

namespace affsched {
namespace {

TEST(SummaryTest, MeanAndVariance) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: sum of squared deviations = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SummaryTest, SingleSampleHasZeroVariance) {
  Summary s;
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.ConfidenceHalfWidth()));
}

TEST(SummaryTest, ConfidenceShrinksWithSamples) {
  Rng rng(5);
  Summary small;
  Summary large;
  for (int i = 0; i < 5; ++i) {
    small.Add(rng.NextNormal(10, 1));
  }
  for (int i = 0; i < 500; ++i) {
    large.Add(rng.NextNormal(10, 1));
  }
  EXPECT_GT(small.ConfidenceHalfWidth(0.95), large.ConfidenceHalfWidth(0.95));
}

TEST(StudentTTest, KnownCriticalValues) {
  // Standard t-table values, 95% two-sided.
  EXPECT_NEAR(StudentTCritical(1, 0.95), 12.706, 0.01);
  EXPECT_NEAR(StudentTCritical(2, 0.95), 4.303, 0.01);
  EXPECT_NEAR(StudentTCritical(5, 0.95), 2.571, 0.02);
  EXPECT_NEAR(StudentTCritical(10, 0.95), 2.228, 0.01);
  EXPECT_NEAR(StudentTCritical(30, 0.95), 2.042, 0.01);
  EXPECT_NEAR(StudentTCritical(120, 0.95), 1.980, 0.01);
}

TEST(StudentTTest, ApproachesNormalForLargeDf) {
  EXPECT_NEAR(StudentTCritical(100000, 0.95), 1.960, 0.005);
  EXPECT_NEAR(StudentTCritical(100000, 0.99), 2.576, 0.01);
}

TEST(StudentTTest, HigherConfidenceWidens) {
  EXPECT_GT(StudentTCritical(10, 0.99), StudentTCritical(10, 0.95));
  EXPECT_GT(StudentTCritical(10, 0.95), StudentTCritical(10, 0.90));
}

}  // namespace
}  // namespace affsched
