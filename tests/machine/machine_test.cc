#include "src/machine/machine.h"

#include <gtest/gtest.h>

#include <cmath>

namespace affsched {
namespace {

TEST(MachineConfigTest, SymmetryDefaults) {
  MachineConfig config;
  EXPECT_EQ(config.num_processors, 20u);
  EXPECT_DOUBLE_EQ(config.CapacityBlocks(), 4096.0);
  EXPECT_DOUBLE_EQ(config.MissServiceSeconds(), 0.75e-6);
  EXPECT_EQ(config.SwitchCost(), Microseconds(750));
}

TEST(MachineConfigTest, FullCacheFillMatchesPaper) {
  // Section 3: "(at least) 3.072 msec. would be required to fill entirely a
  // single cache of 4K 16-byte blocks."
  MachineConfig config;
  const double fill_s = config.CapacityBlocks() * config.MissServiceSeconds();
  EXPECT_NEAR(fill_s, 3.072e-3, 1e-9);
}

TEST(MachineConfigTest, FutureScalingFollowsFigure7) {
  MachineConfig config;
  config.processor_speed = 16.0;
  config.cache_size_factor = 4.0;
  // Computation scales linearly with speed.
  EXPECT_EQ(config.ComputeTime(Seconds(16)), Seconds(1));
  EXPECT_EQ(config.SwitchCost(), Microseconds(750) / 16);
  // Miss service improves only as sqrt(speed).
  EXPECT_NEAR(config.MissServiceSeconds(), 0.75e-6 / 4.0, 1e-12);
  // Cache capacity scales with the factor.
  EXPECT_DOUBLE_EQ(config.CapacityBlocks(), 4096.0 * 4.0);
}

TEST(MachineTest, ProcessorsHaveIndependentCaches) {
  MachineConfig config;
  config.num_processors = 2;
  Machine machine(config);
  const WorkingSetParams ws{.blocks = 1000.0, .buildup_tau_s = 0.01, .steady_miss_per_s = 0.0};
  machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(100));
  EXPECT_GT(machine.processor(0).cache().Resident(1), 900.0);
  EXPECT_DOUBLE_EQ(machine.processor(1).cache().Resident(1), 0.0);
}

TEST(MachineTest, ChunkWallIncludesMissStalls) {
  MachineConfig config;
  Machine machine(config);
  const WorkingSetParams ws{.blocks = 2000.0, .buildup_tau_s = 0.001, .steady_miss_per_s = 0.0};
  const auto exec = machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(10));
  // Cold start: the occupancy-capped working set reloads at 0.75 us/block.
  const double cap = machine.processor(0).cache().MaxResident(2000.0);
  EXPECT_NEAR(exec.reload_misses, cap, 1.0);
  EXPECT_NEAR(ToSeconds(exec.stall), cap * 0.75e-6, 1e-4);
  EXPECT_EQ(exec.wall, Milliseconds(10) + exec.stall);
}

TEST(MachineTest, WarmChunkRunsAtFullSpeed) {
  MachineConfig config;
  Machine machine(config);
  const WorkingSetParams ws{.blocks = 2000.0, .buildup_tau_s = 0.001, .steady_miss_per_s = 0.0};
  machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(100));
  const auto exec = machine.ExecuteChunk(Milliseconds(100), 0, 1, ws, Milliseconds(10));
  EXPECT_NEAR(exec.reload_misses, 0.0, 1e-6);
  EXPECT_EQ(exec.wall, Milliseconds(10));
}

TEST(MachineTest, FasterMachineShortensCompute) {
  MachineConfig config;
  config.processor_speed = 4.0;
  Machine machine(config);
  const WorkingSetParams ws{.blocks = 0.0, .buildup_tau_s = 0.01, .steady_miss_per_s = 0.0};
  const auto exec = machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(8));
  EXPECT_EQ(exec.wall, Milliseconds(2));
}

TEST(MachineTest, RecordDispatchUpdatesHistory) {
  MachineConfig config;
  Machine machine(config);
  EXPECT_EQ(machine.processor(3).last_task(), kNoOwner);
  machine.processor(3).RecordDispatch(42);
  EXPECT_EQ(machine.processor(3).last_task(), 42u);
}

TEST(MachineTest, HeavyTrafficInflatesStalls) {
  MachineConfig config;
  Machine machine(config);
  const WorkingSetParams hot{.blocks = 4000.0, .buildup_tau_s = 0.0001,
                             .steady_miss_per_s = 500000.0};
  // Saturate the bus with traffic from other processors.
  SimTime now = 0;
  for (int i = 0; i < 50; ++i) {
    machine.ExecuteChunk(now, 1, 2, hot, Milliseconds(2));
    now += Milliseconds(2);
  }
  const WorkingSetParams ws{.blocks = 1000.0, .buildup_tau_s = 0.001, .steady_miss_per_s = 0.0};
  const auto contended = machine.ExecuteChunk(now, 0, 1, ws, Milliseconds(1));

  Machine quiet(config);
  const auto uncontended = quiet.ExecuteChunk(0, 0, 1, ws, Milliseconds(1));
  EXPECT_GT(contended.stall, uncontended.stall);
}

// A flat machine splits the stall by miss count: the reload share is the
// parent formula's, stall x reload / total, to the nanosecond, and no reload
// is charged to a tier.
TEST(MachineTest, FlatChunkSplitsStallByMissCount) {
  MachineConfig config;
  Machine machine(config);
  const WorkingSetParams ws{.blocks = 1500.0, .buildup_tau_s = 0.004,
                            .steady_miss_per_s = 20000.0};
  const auto exec = machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(3));
  const double total = exec.reload_misses + exec.steady_misses;
  ASSERT_GT(exec.reload_misses, 0.0);
  ASSERT_GT(exec.steady_misses, 0.0);
  EXPECT_EQ(exec.stall, Seconds(total * config.MissServiceSeconds()));
  EXPECT_EQ(exec.reload_stall, static_cast<SimDuration>(static_cast<double>(exec.stall) *
                                                        (exec.reload_misses / total)));
  EXPECT_EQ(exec.steady_stall, exec.stall - exec.reload_stall);
  EXPECT_EQ(exec.reload_llc, 0);
  EXPECT_EQ(exec.reload_remote, 0);
}

// On cmp-2x10 a task migrating within its cluster refills from the LLC, and
// each such reload costs llc_hit_factor of a local fill.
TEST(MachineTest, LlcServedReloadCostsTheHitFactorOfALocalFill) {
  MachineConfig config;
  config.topology = CmpTopology();
  const WorkingSetParams ws{.blocks = 2000.0, .buildup_tau_s = 0.05};
  const SimDuration chunk = Milliseconds(20);

  // A cold first chunk fills from local memory.
  Machine cold(config);
  const auto local = cold.ExecuteChunk(0, 0, 1, ws, chunk);
  ASSERT_GT(local.reload_misses, 0.0);
  EXPECT_EQ(local.reload_llc, 0);
  EXPECT_EQ(local.reload_stall, local.stall);

  // The same chunk on a cluster-mate, long after the bus went quiet, finds
  // the whole footprint in the shared LLC.
  Machine warm(config);
  warm.ExecuteChunk(0, 0, 1, ws, chunk);
  const auto migrated = warm.ExecuteChunk(Seconds(100), 1, 1, ws, chunk);
  ASSERT_EQ(migrated.reload_misses, local.reload_misses);
  const double factor = config.topology.llc_hit_factor;
  EXPECT_NEAR(static_cast<double>(migrated.reload_stall),
              factor * static_cast<double>(local.reload_stall), 1.0);
  EXPECT_GT(migrated.reload_llc, 0);
  EXPECT_LE(migrated.reload_llc, migrated.reload_stall);
  EXPECT_EQ(migrated.reload_remote, 0);
}

}  // namespace
}  // namespace affsched
