// The colored footprint cache: page-color reservations partition one
// FootprintCache (src/cache/footprint.h).

#include <gtest/gtest.h>

#include <cmath>

#include "src/cache/footprint.h"

namespace affsched {
namespace {

constexpr double kCapacity = 4096.0;

WorkingSetParams TestWs(double blocks = 2000.0, double tau = 0.05, double steady = 0.0) {
  return WorkingSetParams{.blocks = blocks, .buildup_tau_s = tau, .steady_miss_per_s = steady};
}

TEST(PartitionedCacheTest, FullColorMaskBasics) {
  EXPECT_EQ(FullColorMask(1), 0x1ull);
  EXPECT_EQ(FullColorMask(8), 0xFFull);
  EXPECT_EQ(FullColorMask(64), kAllColors);
}

TEST(PartitionedCacheTest, ReservationTrimsToMachineColors) {
  FootprintCache cache(kCapacity, 2, 4);
  cache.ReserveColors(1, kAllColors);
  EXPECT_EQ(cache.ReservedColors(1), FullColorMask(4));
  // Owners without an explicit reservation default to every color.
  EXPECT_EQ(cache.ReservedColors(2), FullColorMask(4));
}

// With all-ones masks the color algebra collapses term for term onto the
// uncolored one (n_sh == n_o == n_own, shared capacity == full capacity), so
// coloring is a strict generalisation of the flat cache.
TEST(PartitionedCacheTest, AllColorsReservedMatchesFootprintCache) {
  FootprintCache partitioned(kCapacity, 2, 8);
  partitioned.ReserveColors(1, kAllColors);
  partitioned.ReserveColors(2, kAllColors);
  FootprintCache flat(kCapacity, 2);
  const WorkingSetParams a = TestWs(2000.0, 0.05, 50.0);
  const WorkingSetParams b = TestWs(900.0, 0.03, 10.0);
  for (int round = 0; round < 5; ++round) {
    const auto pa = partitioned.RunChunk(1, a, 0.04);
    const auto fa = flat.RunChunk(1, a, 0.04);
    EXPECT_NEAR(pa.reload_misses, fa.reload_misses, 1e-9);
    EXPECT_NEAR(pa.steady_misses, fa.steady_misses, 1e-9);
    const auto pb = partitioned.RunChunk(2, b, 0.07);
    const auto fb = flat.RunChunk(2, b, 0.07);
    EXPECT_NEAR(pb.reload_misses, fb.reload_misses, 1e-9);
    EXPECT_NEAR(pb.steady_misses, fb.steady_misses, 1e-9);
  }
  EXPECT_NEAR(partitioned.Resident(1), flat.Resident(1), 1e-9);
  EXPECT_NEAR(partitioned.Resident(2), flat.Resident(2), 1e-9);
  EXPECT_NEAR(partitioned.Occupied(), flat.Occupied(), 1e-9);
}

// Until some owner is reserved, a cache of any color count runs the uncolored
// arithmetic exactly: one survival factor, pow(1 - 1/C, evicting), for every
// other owner.
TEST(PartitionedCacheTest, UnreservedCacheDecaysOthersByOneFactor) {
  for (const size_t colors : {1, 8}) {
    FootprintCache cache(kCapacity, 2, colors);
    cache.SetResident(2, 700.0);
    const auto result = cache.RunChunk(1, TestWs(1500.0, 0.05, 30.0), 0.03);
    const double evicting = result.reload_misses + result.steady_misses;
    ASSERT_GT(evicting, 0.0);
    EXPECT_EQ(cache.Resident(2), 700.0 * std::pow(1.0 - 1.0 / kCapacity, evicting))
        << colors << " colors";
  }
}

TEST(PartitionedCacheTest, ZeroReservedColorsIsAlwaysCold) {
  FootprintCache cache(kCapacity, 2, 8);
  cache.ReserveColors(2, 0x0Full);
  cache.SetResident(2, 400.0);
  cache.ReserveColors(1, 0);

  const WorkingSetParams ws = TestWs(1000.0, 0.05);
  const auto first = cache.RunChunk(1, ws, 10.0);  // >> tau: full touch
  // Every distinct block misses; nothing becomes resident.
  EXPECT_NEAR(first.reload_misses, cache.MaxResident(1000.0), 1e-6);
  EXPECT_DOUBLE_EQ(cache.Resident(1), 0.0);
  // Running again pays the full reload again — no warmth accumulates.
  const auto second = cache.RunChunk(1, ws, 10.0);
  EXPECT_NEAR(second.reload_misses, first.reload_misses, 1e-9);
  // With nowhere to insert, no other owner is disturbed.
  EXPECT_DOUBLE_EQ(cache.Resident(2), 400.0);
}

TEST(PartitionedCacheTest, ColorCountNeedNotDivideCapacity) {
  // 1000 blocks over 7 colors: slices are fractional but exact in aggregate.
  FootprintCache cache(1000.0, 2, 7);
  EXPECT_NEAR(cache.ColorCapacity(), 1000.0 / 7.0, 1e-12);
  EXPECT_NEAR(cache.ReservedCapacity(FullColorMask(7)), 1000.0, 1e-9);
  EXPECT_NEAR(cache.ReservedCapacity(0x7ull), 3000.0 / 7.0, 1e-9);

  cache.ReserveColors(1, 0x7ull);  // three of seven colors
  const auto result = cache.RunChunk(1, TestWs(5000.0, 0.05), 10.0);
  // A huge working set saturates the reservation, never the whole cache.
  const double reserved = cache.ReservedCapacity(0x7ull);
  EXPECT_LE(cache.Resident(1), reserved + 1e-9);
  EXPECT_GT(cache.Resident(1), 0.9 * reserved);
  EXPECT_GT(result.reload_misses, 0.0);
  // MaxResident scores against the full cache (reservation-independent).
  EXPECT_GT(cache.MaxResident(5000.0), reserved);
}

TEST(PartitionedCacheTest, DisjointReservationsAreIsolated) {
  FootprintCache cache(kCapacity, 2, 8);
  cache.ReserveColors(1, 0x03ull);  // colors {0,1}
  cache.ReserveColors(2, 0x0Cull);  // colors {2,3}
  cache.SetResident(2, 500.0);
  cache.RunChunk(1, TestWs(3000.0, 0.05, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(cache.Resident(2), 500.0);
}

// Hand-computed worst case: owner 1 (two colors) overlaps owner 2 (two
// colors) on exactly one color. Every term below follows the model comment
// in src/cache/footprint.h.
TEST(PartitionedCacheTest, TwoJobSharedColorInterferenceMatchesHandComputation) {
  FootprintCache cache(kCapacity, 2, 8);
  const double color_capacity = kCapacity / 8.0;  // 512
  const ColorMask mask1 = 0x03ull;                // colors {0,1}
  const ColorMask mask2 = 0x06ull;                // colors {1,2}; shares color 1
  cache.ReserveColors(1, mask1);
  cache.ReserveColors(2, mask2);
  cache.SetResident(2, 300.0);

  const WorkingSetParams ws = TestWs(800.0, 0.05, 40.0);
  const double seconds = 0.1;
  const auto result = cache.RunChunk(1, ws, seconds);

  // Reload: buildup toward the reservation-capped working set from cold.
  const double w_eff = ExpectedMaxResident(cache.ReservedCapacity(mask1), 2, 800.0);
  const double touch = 1.0 - std::exp(-seconds / 0.05);
  const double expected_reload = w_eff * touch;
  EXPECT_NEAR(result.reload_misses, expected_reload, 1e-9);
  EXPECT_NEAR(result.steady_misses, 40.0 * seconds, 1e-12);

  // Interference: victim keeps half its footprint on the contested color
  // (n_sh/n_o = 1/2); half the insertions are directed there (n_sh/n_own =
  // 1/2); each sweeps the one-color slice.
  const double evicting = expected_reload + 40.0 * seconds;
  const double vulnerable = 300.0 * 0.5;
  const double directed = evicting * 0.5;
  const double survival = std::pow(1.0 - 1.0 / color_capacity, directed);
  const double expected_lost = vulnerable * (1.0 - survival);
  EXPECT_NEAR(cache.Resident(2), 300.0 - expected_lost, 1e-9);
  EXPECT_NEAR(cache.Occupied(), cache.Resident(1) + cache.Resident(2), 1e-9);
}

}  // namespace
}  // namespace affsched
