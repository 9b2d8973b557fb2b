// Parameterized property sweep over the footprint model: invariants that
// must hold for any (working set, tau, duration, interference) combination.

#include <gtest/gtest.h>

#include <cmath>

#include "src/cache/footprint.h"

namespace affsched {
namespace {

struct FootprintCase {
  double blocks;
  double tau_s;
  double steady;
};

class FootprintPropertyTest : public ::testing::TestWithParam<FootprintCase> {
 protected:
  static constexpr double kCapacity = 4096.0;
  WorkingSetParams Ws() const {
    const FootprintCase c = GetParam();
    return WorkingSetParams{.blocks = c.blocks, .buildup_tau_s = c.tau_s,
                            .steady_miss_per_s = c.steady};
  }
};

TEST_P(FootprintPropertyTest, ResidencyMonotoneUnderExecution) {
  FootprintCache cache(kCapacity);
  double prev = 0.0;
  for (int step = 0; step < 50; ++step) {
    cache.RunChunk(1, Ws(), 0.002);
    const double now = cache.Resident(1);
    EXPECT_GE(now + 1e-9, prev);
    prev = now;
  }
}

TEST_P(FootprintPropertyTest, ResidencyNeverExceedsCapOrCapacity) {
  FootprintCache cache(kCapacity);
  for (int step = 0; step < 100; ++step) {
    cache.RunChunk(1, Ws(), 0.01);
    EXPECT_LE(cache.Resident(1), cache.MaxResident(Ws().blocks) + 1e-6);
    EXPECT_LE(cache.Occupied(), kCapacity + 1e-6);
  }
}

TEST_P(FootprintPropertyTest, ChunkSplittingIsConsistent) {
  // Running 10 ms in one chunk or in five 2 ms chunks reaches the same
  // resident footprint (the exponential buildup composes).
  FootprintCache one(kCapacity);
  one.RunChunk(1, Ws(), 0.010);
  FootprintCache many(kCapacity);
  for (int i = 0; i < 5; ++i) {
    many.RunChunk(1, Ws(), 0.002);
  }
  EXPECT_NEAR(one.Resident(1), many.Resident(1), 1e-6 * kCapacity);
}

TEST_P(FootprintPropertyTest, ReloadMissesEqualFootprintGrowth) {
  FootprintCache cache(kCapacity);
  for (int step = 0; step < 20; ++step) {
    const double before = cache.Resident(1);
    const auto result = cache.RunChunk(1, Ws(), 0.005);
    const double after = cache.Resident(1);
    EXPECT_NEAR(result.reload_misses, after - before, 1e-6);
  }
}

TEST_P(FootprintPropertyTest, InterferenceOnlyShrinksOthers) {
  FootprintCache cache(kCapacity);
  cache.RunChunk(1, Ws(), 1.0);
  const double mine = cache.Resident(1);
  const WorkingSetParams other{.blocks = 2000.0, .buildup_tau_s = 0.01,
                               .steady_miss_per_s = 0.0};
  cache.RunChunk(2, other, 0.05);
  EXPECT_LE(cache.Resident(1), mine + 1e-9);
  EXPECT_GE(cache.Resident(2), 0.0);
  EXPECT_LE(cache.Occupied(), kCapacity + 1e-6);
}

TEST_P(FootprintPropertyTest, FlushResetsEverything) {
  FootprintCache cache(kCapacity);
  cache.RunChunk(1, Ws(), 0.5);
  cache.RunChunk(2, Ws(), 0.5);
  cache.Flush();
  EXPECT_DOUBLE_EQ(cache.Occupied(), 0.0);
  EXPECT_DOUBLE_EQ(cache.Resident(1), 0.0);
  EXPECT_DOUBLE_EQ(cache.Resident(2), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FootprintPropertyTest,
    ::testing::Values(FootprintCase{100.0, 0.001, 0.0},      // tiny, instant
                      FootprintCase{500.0, 0.02, 1000.0},    // small with streaming
                      FootprintCase{2000.0, 0.05, 0.0},      // mid
                      FootprintCase{2650.0, 0.035, 2000.0},  // MATRIX calibration
                      FootprintCase{4500.0, 0.052, 12000.0}, // MVA calibration
                      FootprintCase{5600.0, 0.125, 20000.0}, // GRAVITY calibration
                      FootprintCase{10000.0, 0.2, 50000.0}   // far beyond capacity
                      ),
    [](const ::testing::TestParamInfo<FootprintCase>& param_info) {
      return "W" + std::to_string(static_cast<int>(param_info.param.blocks)) + "_t" +
             std::to_string(static_cast<int>(param_info.param.tau_s * 1000));
    });

}  // namespace
}  // namespace affsched
