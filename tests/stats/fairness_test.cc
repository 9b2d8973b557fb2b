#include "src/stats/fairness.h"

#include <gtest/gtest.h>

namespace affsched {
namespace {

TEST(JainIndexTest, EqualSharesArePerfectlyFair) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({5, 5, 5, 5}), 1.0);
}

TEST(JainIndexTest, SingleHoarderApproachesOneOverN) {
  EXPECT_NEAR(JainFairnessIndex({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(JainIndexTest, IntermediateCase) {
  // Known value: (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
  EXPECT_NEAR(JainFairnessIndex({1, 2, 3}), 36.0 / 42.0, 1e-12);
}

TEST(JainIndexTest, EmptyAndZeroInputs) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({0, 0}), 1.0);
}

TEST(JainIndexTest, ScaleInvariant) {
  const std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b;
  for (double x : a) {
    b.push_back(x * 1000);
  }
  EXPECT_NEAR(JainFairnessIndex(a), JainFairnessIndex(b), 1e-12);
}

TEST(FairnessDeathTest, NegativeValueAborts) {
  EXPECT_DEATH(JainFairnessIndex({-1.0}), "CHECK");
}

}  // namespace
}  // namespace affsched
