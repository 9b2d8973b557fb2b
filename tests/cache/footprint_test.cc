#include "src/cache/footprint.h"

#include <gtest/gtest.h>

#include <cmath>

namespace affsched {
namespace {

constexpr double kCapacity = 4096.0;

WorkingSetParams TestWs(double blocks = 2000.0, double tau = 0.05, double steady = 0.0) {
  return WorkingSetParams{.blocks = blocks, .buildup_tau_s = tau, .steady_miss_per_s = steady};
}

TEST(FootprintCacheTest, ColdStartReloadsPerWorkingSetCurve) {
  FootprintCache cache(kCapacity);
  const WorkingSetParams ws = TestWs(2000.0, 0.05);
  const auto result = cache.RunChunk(1, ws, 0.05);  // one time constant
  const double expected = cache.MaxResident(2000.0) * (1.0 - std::exp(-1.0));
  EXPECT_NEAR(result.reload_misses, expected, 1e-6);
  EXPECT_NEAR(cache.Resident(1), expected, 1e-6);
}

TEST(FootprintCacheTest, LongRunApproachesOccupancyCap) {
  FootprintCache cache(kCapacity);
  const WorkingSetParams ws = TestWs(2000.0, 0.05);
  cache.RunChunk(1, ws, 10.0);
  EXPECT_NEAR(cache.Resident(1), cache.MaxResident(2000.0), 1.0);
  // The 2-way occupancy cap: some of a random working set self-conflicts.
  EXPECT_LT(cache.MaxResident(2000.0), 2000.0);
  EXPECT_GT(cache.MaxResident(2000.0), 1700.0);
}

TEST(FootprintCacheTest, MaxResidentProperties) {
  FootprintCache cache(kCapacity);
  EXPECT_DOUBLE_EQ(cache.MaxResident(0.0), 0.0);
  // Monotone, below both W and capacity.
  double prev = 0.0;
  for (double w : {100.0, 1000.0, 2000.0, 4000.0, 8000.0, 100000.0}) {
    const double m = cache.MaxResident(w);
    EXPECT_GE(m, prev);
    EXPECT_LE(m, w);
    EXPECT_LE(m, kCapacity);
    prev = m;
  }
  // Tiny working sets almost never self-conflict.
  EXPECT_NEAR(cache.MaxResident(50.0), 50.0, 1.0);
  // A working set far beyond capacity saturates the whole cache.
  EXPECT_NEAR(cache.MaxResident(1e6), kCapacity, 1.0);
}

TEST(FootprintCacheTest, FullyAssociativeCapIsCapacity) {
  // With ways == capacity (fully associative), the only cap is capacity.
  FootprintCache cache(64.0, 64);
  EXPECT_NEAR(cache.MaxResident(32.0), 32.0, 1e-6);
  EXPECT_NEAR(cache.MaxResident(1000.0), 64.0, 0.5);
}

TEST(FootprintCacheTest, WarmTaskHasNoReloadMisses) {
  FootprintCache cache(kCapacity);
  const WorkingSetParams ws = TestWs();
  cache.RunChunk(1, ws, 10.0);  // warm up fully
  const auto result = cache.RunChunk(1, ws, 0.1);
  EXPECT_NEAR(result.reload_misses, 0.0, 1e-6);
}

TEST(FootprintCacheTest, SteadyMissesScaleWithTime) {
  FootprintCache cache(kCapacity);
  const WorkingSetParams ws = TestWs(100.0, 0.01, 5000.0);
  const auto result = cache.RunChunk(1, ws, 0.2);
  EXPECT_NEAR(result.steady_misses, 1000.0, 1e-6);
}

TEST(FootprintCacheTest, FlushForcesFullReload) {
  FootprintCache cache(kCapacity);
  const WorkingSetParams ws = TestWs(2000.0, 0.05);
  cache.RunChunk(1, ws, 10.0);
  cache.Flush();
  EXPECT_DOUBLE_EQ(cache.Resident(1), 0.0);
  const auto result = cache.RunChunk(1, ws, 10.0);
  EXPECT_NEAR(result.reload_misses, cache.MaxResident(2000.0), 1.0);
}

TEST(FootprintCacheTest, InterveningTaskEjectsOthersExponentially) {
  FootprintCache cache(kCapacity);
  const WorkingSetParams ws_a = TestWs(2000.0, 0.05);
  const WorkingSetParams ws_b = TestWs(3000.0, 0.05);
  cache.RunChunk(1, ws_a, 10.0);
  const double before = cache.Resident(1);
  // B inserts ~3000 blocks; free space is 4096-2000=2096, so ~904 evicting
  // insertions fall on residents.
  cache.RunChunk(2, ws_b, 10.0);
  const double after = cache.Resident(1);
  EXPECT_LT(after, before);
  EXPECT_GT(after, 0.0);
  // Total occupancy stays within capacity.
  EXPECT_LE(cache.Occupied(), kCapacity + 1e-6);
}

TEST(FootprintCacheTest, PenaltyGrowsWithInterferenceDuration) {
  // The Table 1 effect: the longer the intervening task runs, the more of the
  // returning task's context is ejected, so the larger the reload penalty.
  double reload_short = 0;
  double reload_long = 0;
  for (const bool long_run : {false, true}) {
    FootprintCache cache(kCapacity);
    const WorkingSetParams ws_a = TestWs(3000.0, 0.05);
    const WorkingSetParams ws_b = TestWs(3000.0, 0.05);
    cache.RunChunk(1, ws_a, 10.0);
    cache.RunChunk(2, ws_b, long_run ? 0.4 : 0.025);
    const auto back = cache.RunChunk(1, ws_a, 10.0);
    (long_run ? reload_long : reload_short) = back.reload_misses;
  }
  EXPECT_GT(reload_long, reload_short);
}

TEST(FootprintCacheTest, WorkingSetLargerThanCacheClamps) {
  FootprintCache cache(kCapacity);
  const WorkingSetParams ws = TestWs(10000.0, 0.05);
  cache.RunChunk(1, ws, 10.0);
  EXPECT_LE(cache.Resident(1), kCapacity + 1e-6);
}

TEST(FootprintCacheTest, ReplaceOwnerDataKeepsFraction) {
  FootprintCache cache(kCapacity);
  cache.SetResident(1, 1000.0);
  cache.ReplaceOwnerData(1, 0.7);
  EXPECT_DOUBLE_EQ(cache.Resident(1), 700.0);
}

TEST(FootprintCacheTest, ZeroDurationChunkIsFree) {
  FootprintCache cache(kCapacity);
  const auto result = cache.RunChunk(1, TestWs(), 0.0);
  EXPECT_DOUBLE_EQ(result.TotalMisses(), 0.0);
  EXPECT_DOUBLE_EQ(cache.Resident(1), 0.0);
}

TEST(FootprintCacheTest, ManyTasksStayWithinCapacity) {
  FootprintCache cache(kCapacity);
  const WorkingSetParams ws = TestWs(1500.0, 0.02);
  for (int round = 0; round < 20; ++round) {
    for (CacheOwner owner = 1; owner <= 6; ++owner) {
      cache.RunChunk(owner, ws, 0.05);
    }
    EXPECT_LE(cache.Occupied(), kCapacity + 1e-6);
  }
}

TEST(FootprintCacheTest, RunningTaskProtectedFromOwnEvictions) {
  FootprintCache cache(kCapacity);
  const WorkingSetParams ws = TestWs(3000.0, 0.02, 100000.0);
  cache.RunChunk(1, ws, 1.0);
  // Steady misses insert blocks but the running task's footprint holds.
  EXPECT_NEAR(cache.Resident(1), cache.MaxResident(3000.0), 1.0);
}

}  // namespace
}  // namespace affsched
