#include "src/cache/exact_cache.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace affsched {
namespace {

CacheGeometry SmallGeometry() {
  // 8 sets x 2 ways = 16 lines.
  return CacheGeometry{.line_bytes = 16, .total_bytes = 16 * 16, .ways = 2};
}

TEST(CacheGeometryTest, SymmetryDefaults) {
  CacheGeometry g;
  EXPECT_EQ(g.TotalLines(), 4096u);
  EXPECT_EQ(g.NumSets(), 2048u);
}

TEST(ExactCacheTest, MissThenHit) {
  ExactCache c(SmallGeometry());
  EXPECT_FALSE(c.Access(1, 5).hit);
  EXPECT_TRUE(c.Access(1, 5).hit);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(ExactCacheTest, DistinctOwnersDoNotShareLines) {
  ExactCache c(SmallGeometry());
  c.Access(1, 5);
  EXPECT_FALSE(c.Access(2, 5).hit);  // same block, different address space
  EXPECT_TRUE(c.Contains(1, 5));
  EXPECT_TRUE(c.Contains(2, 5));
}

TEST(ExactCacheTest, LruEvictionWithinSet) {
  ExactCache c(SmallGeometry());  // 8 sets, 2 ways
  // Blocks 0, 8, 16 all map to set 0.
  c.Access(1, 0);
  c.Access(1, 8);
  c.Access(1, 0);   // 0 becomes MRU
  const auto result = c.Access(1, 16);  // evicts LRU = 8
  EXPECT_FALSE(result.hit);
  EXPECT_EQ(result.evicted_owner, 1u);
  EXPECT_TRUE(c.Contains(1, 0));
  EXPECT_FALSE(c.Contains(1, 8));
  EXPECT_TRUE(c.Contains(1, 16));
}

TEST(ExactCacheTest, ResidentLinesTracked) {
  ExactCache c(SmallGeometry());
  for (uint64_t b = 0; b < 8; ++b) {
    c.Access(7, b);
  }
  EXPECT_EQ(c.ResidentLines(7), 8u);
  EXPECT_EQ(c.OccupiedLines(), 8u);
}

TEST(ExactCacheTest, EvictionDecrementsVictimResidency) {
  ExactCache c(SmallGeometry());
  c.Access(1, 0);
  c.Access(1, 8);
  c.Access(2, 16);  // set 0 full; evicts one of owner 1's lines
  EXPECT_EQ(c.ResidentLines(1), 1u);
  EXPECT_EQ(c.ResidentLines(2), 1u);
}

TEST(ExactCacheTest, FlushEmptiesEverything) {
  ExactCache c(SmallGeometry());
  for (uint64_t b = 0; b < 10; ++b) {
    c.Access(1, b);
  }
  c.Flush();
  EXPECT_EQ(c.OccupiedLines(), 0u);
  EXPECT_EQ(c.ResidentLines(1), 0u);
  EXPECT_FALSE(c.Contains(1, 0));
}

TEST(ExactCacheTest, WorkingSetWithinCapacityHasNoSteadyMisses) {
  ExactCache c(SmallGeometry());
  // Working set of 8 blocks spread over distinct sets fits the 16-line cache.
  for (int pass = 0; pass < 10; ++pass) {
    for (uint64_t b = 0; b < 8; ++b) {
      c.Access(1, b);
    }
  }
  EXPECT_EQ(c.misses(), 8u);  // compulsory only
  EXPECT_EQ(c.hits(), 72u);
}

TEST(ExactCacheTest, ThrashingWorkingSetMissesEveryPass) {
  ExactCache c(SmallGeometry());
  // 3 blocks in the same set with 2 ways, accessed cyclically: always misses.
  c.ResetCounters();
  for (int pass = 0; pass < 10; ++pass) {
    c.Access(1, 0);
    c.Access(1, 8);
    c.Access(1, 16);
  }
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 30u);
}

TEST(ExactCacheTest, ResetCountersKeepsContents) {
  ExactCache c(SmallGeometry());
  c.Access(1, 3);
  c.ResetCounters();
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_TRUE(c.Access(1, 3).hit);
}

TEST(ExactCacheTest, FullSymmetryCacheFillsCompletely) {
  ExactCache c(CacheGeometry{});
  for (uint64_t b = 0; b < 4096; ++b) {
    c.Access(1, b);
  }
  EXPECT_EQ(c.ResidentLines(1), 4096u);
  EXPECT_EQ(c.OccupiedLines(), 4096u);
  // A full second pass hits everywhere.
  c.ResetCounters();
  for (uint64_t b = 0; b < 4096; ++b) {
    EXPECT_TRUE(c.Access(1, b).hit);
  }
}

TEST(ExactCacheDeathTest, ReservedOwnerRejected) {
  ExactCache c(SmallGeometry());
  EXPECT_DEATH(c.Access(kNoOwner, 0), "CHECK");
}

}  // namespace
}  // namespace affsched
