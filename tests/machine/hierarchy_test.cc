// The cache hierarchy of a hierarchical machine: the Machine's cluster LLCs
// and last-node directory decide where each reload miss is served from
// (Machine::ExecuteChunk), and every mutation that must reach the LLC copy
// goes through the Machine (owed invalidations, Invalidate,
// ReplaceOwnerData).

#include <gtest/gtest.h>

#include <utility>

#include "src/machine/machine.h"
#include "src/topology/topology.h"

namespace affsched {
namespace {

WorkingSetParams TestWs(double blocks = 2000.0) {
  return WorkingSetParams{.blocks = blocks, .buildup_tau_s = 0.05};
}

Machine MakeMachine(const TopologySpec& spec, size_t procs) {
  MachineConfig config;
  config.topology = spec;
  config.num_processors = procs;
  return Machine(config);
}

double L1(const Machine& machine, size_t proc, CacheOwner owner) {
  return machine.processor(proc).cache().Resident(owner);
}

// The part of a reload stall charged to a source never exceeds the stall:
// each is rounded to the nanosecond on its own.
void ExpectSourcesWithinReloadStall(const Machine::ChunkExecution& exec) {
  EXPECT_LE(exec.reload_llc + exec.reload_remote, exec.reload_stall + 2);
}

TEST(HierarchicalCacheTest, FirstChunkClassifiesNothing) {
  for (const auto& [spec, procs] :
       {std::pair{CmpTopology(), 20}, std::pair{NumaTopology(), 32}}) {
    Machine machine = MakeMachine(spec, procs);
    const auto exec = machine.ExecuteChunk(0, 0, 1, TestWs(), Seconds(1));
    EXPECT_GT(exec.reload_misses, 0.0) << spec.name;
    // Cold machine: nothing in the LLC yet, no previous node on record.
    EXPECT_EQ(exec.reload_llc, 0) << spec.name;
    EXPECT_EQ(exec.reload_remote, 0) << spec.name;
    EXPECT_EQ(exec.reload_stall, exec.stall) << spec.name;
  }
}

TEST(HierarchicalCacheTest, SameClusterMigrationRefillsFromLlc) {
  Machine machine = MakeMachine(CmpTopology(), 20);
  machine.ExecuteChunk(0, 0, 1, TestWs(), Seconds(10));  // warm proc 0 and the cluster LLC
  // Move within cluster 0 (procs 0-9 under cmp-2x10): the task's footprint
  // is still resident in the shared LLC, so the L1 rebuild hits there.
  const auto exec = machine.ExecuteChunk(Seconds(20), 5, 1, TestWs(), Seconds(1));
  EXPECT_GT(exec.reload_misses, 0.0);
  EXPECT_GT(exec.reload_llc, 0);
  ExpectSourcesWithinReloadStall(exec);
  EXPECT_EQ(exec.reload_remote, 0);  // single node: never remote
}

TEST(HierarchicalCacheTest, CrossClusterMigrationMissesTheLlc) {
  Machine machine = MakeMachine(CmpTopology(), 20);
  machine.ExecuteChunk(0, 0, 1, TestWs(), Seconds(10));
  // Cluster 1's LLC never saw this task.
  const auto exec = machine.ExecuteChunk(Seconds(20), 15, 1, TestWs(), Seconds(1));
  EXPECT_GT(exec.reload_misses, 0.0);
  EXPECT_EQ(exec.reload_llc, 0);
  EXPECT_GT(machine.llc(1).Resident(1), 0.0);  // it has now
}

TEST(HierarchicalCacheTest, CrossNodeMigrationPaysRemoteFills) {
  Machine machine = MakeMachine(NumaTopology(), 32);
  machine.ExecuteChunk(0, 0, 1, TestWs(), Seconds(10));  // task lives on node 0
  // Proc 8 is node 1 under numa-4x8: the refill crosses the interconnect.
  const auto exec = machine.ExecuteChunk(Seconds(20), 8, 1, TestWs(), Seconds(1));
  EXPECT_GT(exec.reload_misses, 0.0);
  EXPECT_GT(exec.reload_remote, 0);
  ExpectSourcesWithinReloadStall(exec);
  // Once it has run here, the task's home is node 1: re-running locally
  // stops being remote.
  const auto again = machine.ExecuteChunk(Seconds(30), 8, 1, TestWs(), Seconds(1));
  EXPECT_EQ(again.reload_remote, 0);
}

TEST(HierarchicalCacheTest, LlcHitsOffsetRemoteFills) {
  Machine machine = MakeMachine(NumaTopology(), 32);
  machine.ExecuteChunk(0, 0, 1, TestWs(), Seconds(10));
  machine.ExecuteChunk(Seconds(20), 8, 1, TestWs(), Seconds(10));  // warm node 1's LLC
  machine.ExecuteChunk(Seconds(40), 0, 1, TestWs(), Seconds(10));  // move home back to node 0
  // Return to node 1: the move is cross-node, but node 1's LLC still holds
  // part of the footprint, so only the LLC-miss remainder is remote.
  const auto exec = machine.ExecuteChunk(Seconds(60), 9, 1, TestWs(), Seconds(1));
  EXPECT_GT(exec.reload_llc, 0);
  ExpectSourcesWithinReloadStall(exec);
}

// Owed invalidations settled at a chunk's start leave the LLC copy too:
// exactly the amount the private cache lost.
TEST(HierarchicalCacheTest, EjectBlocksErodesLlcCopy) {
  Machine machine = MakeMachine(CmpTopology(), 20);
  machine.ExecuteChunk(0, 0, 1, TestWs(), Seconds(10));
  const double l1_before = L1(machine, 0, 1);
  const double llc_before = machine.llc(0).Resident(1);
  machine.ExecuteChunk(Seconds(20), 0, 1, TestWs(), 0, /*owed=*/100.0);
  EXPECT_DOUBLE_EQ(L1(machine, 0, 1), l1_before - 100.0);
  EXPECT_DOUBLE_EQ(machine.llc(0).Resident(1), llc_before - 100.0);

  // Owed more than the private cache holds, the LLC still loses only what
  // the private cache lost, although it holds more.
  const double l1 = L1(machine, 0, 1);
  const double llc = machine.llc(0).Resident(1);
  ASSERT_GT(llc, l1);
  machine.ExecuteChunk(Seconds(20), 0, 1, TestWs(), 0, /*owed=*/1e9);
  EXPECT_DOUBLE_EQ(L1(machine, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(machine.llc(0).Resident(1), llc - l1);
}

// Machine::Invalidate removes min(blocks, private resident) from the private
// cache and the same amount from the LLC copy, and charges it to the bus.
TEST(HierarchicalCacheTest, InvalidateRemovesMinOfRequestAndResident) {
  Machine machine = MakeMachine(CmpTopology(), 20);
  WorkingSetParams ws = TestWs(1000.0);
  ws.steady_miss_per_s = 2000.0;
  machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(200));
  const double before = L1(machine, 0, 1);
  const double llc_before = machine.llc(0).Resident(1);
  ASSERT_GT(before, 300.0);
  const SimTime now = Seconds(1);
  double bus = machine.bus().total_transfers();

  // Less than resident: all of it is removed.
  machine.Invalidate(now, 0, 1, 100.0);
  EXPECT_NEAR(L1(machine, 0, 1), before - 100.0, 1e-9);
  EXPECT_NEAR(machine.llc(0).Resident(1), llc_before - 100.0, 1e-9);
  EXPECT_NEAR(machine.bus().total_transfers() - bus, 100.0, 1e-9);

  // More than resident: clamped to what was there, and nothing is left.
  const double after = L1(machine, 0, 1);
  const double llc_after = machine.llc(0).Resident(1);
  bus = machine.bus().total_transfers();
  machine.Invalidate(now, 0, 1, 1e9);
  EXPECT_DOUBLE_EQ(L1(machine, 0, 1), 0.0);
  EXPECT_NEAR(machine.llc(0).Resident(1), llc_after - after, 1e-9);
  EXPECT_NEAR(machine.bus().total_transfers() - bus, after, 1e-9);

  // An owner with nothing resident loses nothing and costs the bus nothing.
  const double llc_left = machine.llc(0).Resident(1);
  bus = machine.bus().total_transfers();
  machine.Invalidate(now, 0, 1, 50.0);
  machine.Invalidate(now, 0, 7, 50.0);
  machine.Invalidate(now, 0, 1, 0.0);
  EXPECT_EQ(machine.llc(0).Resident(1), llc_left);
  EXPECT_EQ(machine.bus().total_transfers(), bus);
}

TEST(HierarchicalCacheTest, ReplaceOwnerDataScalesBothLevels) {
  Machine machine = MakeMachine(CmpTopology(), 20);
  machine.ExecuteChunk(0, 0, 1, TestWs(), Seconds(10));
  const double l1 = L1(machine, 0, 1);
  const double llc = machine.llc(0).Resident(1);
  ASSERT_GT(llc, 0.0);
  machine.ReplaceOwnerData(0, 1, 0.25);
  EXPECT_DOUBLE_EQ(L1(machine, 0, 1), l1 * 0.25);
  EXPECT_DOUBLE_EQ(machine.llc(0).Resident(1), llc * 0.25);
}

TEST(HierarchicalCacheTest, FlushOnlyClearsThePrivateCache) {
  Machine machine = MakeMachine(CmpTopology(), 20);
  machine.ExecuteChunk(0, 0, 1, TestWs(), Seconds(10));
  machine.processor(0).cache().Flush();
  EXPECT_DOUBLE_EQ(L1(machine, 0, 1), 0.0);
  EXPECT_GT(machine.llc(0).Resident(1), 0.0);
}

TEST(HierarchicalCacheTest, NoLlcStateStillTracksNodes) {
  // LLC disabled: reload misses can still be remote, and then all are.
  TopologySpec spec = NumaTopology();
  spec.llc_kb = 0;
  Machine machine = MakeMachine(spec, 32);
  machine.ExecuteChunk(0, 0, 1, TestWs(), Seconds(10));
  const auto exec = machine.ExecuteChunk(Seconds(20), 8, 1, TestWs(), Seconds(1));
  EXPECT_GT(exec.reload_misses, 0.0);
  EXPECT_EQ(exec.reload_llc, 0);
  EXPECT_NEAR(static_cast<double>(exec.reload_remote), static_cast<double>(exec.reload_stall),
              1.0);
}

// The LLC counts capacity in the private caches' 16-byte working-set blocks,
// so the llc-line key reaches the spec string but not the simulation.
TEST(HierarchicalCacheTest, LlcCountsWorkingSetBlocks) {
  TopologySpec spec = CmpTopology();
  Machine machine = MakeMachine(spec, 20);
  EXPECT_DOUBLE_EQ(machine.llc(0).capacity(), 512.0 * 1024.0 / 16.0);
  spec.llc_line_bytes = 128;
  Machine wide = MakeMachine(spec, 20);
  EXPECT_DOUBLE_EQ(wide.llc(0).capacity(), machine.llc(0).capacity());
  machine.ExecuteChunk(0, 0, 1, TestWs(), Seconds(10));
  wide.ExecuteChunk(0, 0, 1, TestWs(), Seconds(10));
  const auto a = machine.ExecuteChunk(Seconds(20), 5, 1, TestWs(), Seconds(1));
  const auto b = wide.ExecuteChunk(Seconds(20), 5, 1, TestWs(), Seconds(1));
  EXPECT_EQ(a.stall, b.stall);
  EXPECT_EQ(a.reload_llc, b.reload_llc);
}

}  // namespace
}  // namespace affsched
