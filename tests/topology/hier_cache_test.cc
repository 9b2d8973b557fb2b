#include "src/topology/hier_cache.h"

#include <gtest/gtest.h>

#include "src/topology/topology.h"

namespace affsched {
namespace {

constexpr double kL1Capacity = 4096.0;
constexpr size_t kL1Ways = 2;

WorkingSetParams TestWs(double blocks = 2000.0) {
  return WorkingSetParams{.blocks = blocks, .buildup_tau_s = 0.05};
}

// A harness owning the shared state plus one model per processor, the way
// the Machine wires them.
struct Harness {
  Harness(const TopologySpec& spec, size_t procs)
      : topology(spec, procs),
        state(topology, spec.llc_kb > 0 ? spec.LlcCapacityBlocks(spec.llc_line_bytes) : 0.0,
              spec.llc_ways) {
    for (size_t p = 0; p < procs; ++p) {
      models.emplace_back(kL1Capacity, kL1Ways, topology, &state, p);
    }
  }
  Topology topology;
  TopologyCacheState state;
  std::vector<HierarchicalCacheModel> models;
};

TEST(HierarchicalCacheTest, FirstChunkClassifiesNothing) {
  Harness h(CmpTopology(), 20);
  const CacheChunkResult r = h.models[0].RunChunk(1, TestWs(), 1.0);
  EXPECT_GT(r.reload_misses, 0.0);
  // Cold machine: nothing in the LLC yet, no previous node on record.
  EXPECT_DOUBLE_EQ(r.reload_llc_hits, 0.0);
  EXPECT_DOUBLE_EQ(r.reload_remote, 0.0);
}

TEST(HierarchicalCacheTest, SameClusterMigrationRefillsFromLlc) {
  Harness h(CmpTopology(), 20);
  h.models[0].RunChunk(1, TestWs(), 10.0);  // warm proc 0 and the cluster LLC
  // Move within cluster 0 (procs 0-9 under cmp-2x10): the task's footprint
  // is still resident in the shared LLC, so the L1 rebuild hits there.
  const CacheChunkResult r = h.models[5].RunChunk(1, TestWs(), 1.0);
  EXPECT_GT(r.reload_misses, 0.0);
  EXPECT_GT(r.reload_llc_hits, 0.0);
  EXPECT_LE(r.reload_llc_hits, r.reload_misses + 1e-9);
  EXPECT_DOUBLE_EQ(r.reload_remote, 0.0);  // single node: never remote
}

TEST(HierarchicalCacheTest, CrossClusterMigrationMissesTheLlc) {
  Harness h(CmpTopology(), 20);
  h.models[0].RunChunk(1, TestWs(), 10.0);
  // Cluster 1's LLC never saw this task.
  const CacheChunkResult r = h.models[15].RunChunk(1, TestWs(), 1.0);
  EXPECT_GT(r.reload_misses, 0.0);
  EXPECT_DOUBLE_EQ(r.reload_llc_hits, 0.0);
}

TEST(HierarchicalCacheTest, CrossNodeMigrationPaysRemoteFills) {
  Harness h(NumaTopology(), 32);
  h.models[0].RunChunk(1, TestWs(), 10.0);  // task lives on node 0
  // Proc 8 is node 1 under numa-4x8: the refill crosses the interconnect.
  const CacheChunkResult r = h.models[8].RunChunk(1, TestWs(), 1.0);
  EXPECT_GT(r.reload_misses, 0.0);
  EXPECT_GT(r.reload_remote, 0.0);
  EXPECT_LE(r.reload_llc_hits + r.reload_remote, r.reload_misses + 1e-9);
  // Once it has run here, the task's home is node 1: re-running locally
  // stops being remote.
  const CacheChunkResult again = h.models[8].RunChunk(1, TestWs(), 1.0);
  EXPECT_DOUBLE_EQ(again.reload_remote, 0.0);
}

TEST(HierarchicalCacheTest, LlcHitsOffsetRemoteFills) {
  Harness h(NumaTopology(), 32);
  h.models[0].RunChunk(1, TestWs(), 10.0);
  h.models[8].RunChunk(1, TestWs(), 10.0);  // warm node 1's LLC with the task
  h.models[0].RunChunk(1, TestWs(), 10.0);  // move home back to node 0
  // Return to node 1: the move is cross-node, but node 1's LLC still holds
  // part of the footprint, so only the LLC-miss remainder is remote.
  const CacheChunkResult r = h.models[9].RunChunk(1, TestWs(), 1.0);
  EXPECT_GT(r.reload_llc_hits, 0.0);
  EXPECT_LE(r.reload_llc_hits + r.reload_remote, r.reload_misses + 1e-9);
}

TEST(HierarchicalCacheTest, DelegatesL1Queries) {
  Harness h(CmpTopology(), 20);
  EXPECT_DOUBLE_EQ(h.models[0].capacity(), kL1Capacity);
  h.models[0].RunChunk(1, TestWs(), 10.0);
  EXPECT_GT(h.models[0].Resident(1), 0.0);
  EXPECT_GT(h.models[0].Occupied(), 0.0);
  EXPECT_DOUBLE_EQ(h.models[1].Resident(1), 0.0);  // private caches stay private
}

TEST(HierarchicalCacheTest, RemoveOwnerClearsAllLevels) {
  Harness h(CmpTopology(), 20);
  h.models[0].RunChunk(1, TestWs(), 10.0);
  ASSERT_GT(h.state.llc(0)->Resident(1), 0.0);
  h.models[0].RemoveOwner(1);
  EXPECT_DOUBLE_EQ(h.models[0].Resident(1), 0.0);
  EXPECT_DOUBLE_EQ(h.state.llc(0)->Resident(1), 0.0);
  EXPECT_EQ(h.state.LastNode(1), TopologyCacheState::kNoNode);
}

TEST(HierarchicalCacheTest, EjectBlocksErodesLlcCopy) {
  Harness h(CmpTopology(), 20);
  h.models[0].RunChunk(1, TestWs(), 10.0);
  const double before = h.state.llc(0)->Resident(1);
  const double removed = h.models[0].EjectBlocks(1, 100.0);
  EXPECT_DOUBLE_EQ(removed, 100.0);
  // An invalidated line leaves the LLC too: exactly the amount returned.
  EXPECT_DOUBLE_EQ(h.state.llc(0)->Resident(1), before - removed);

  // Asked for more than the private cache holds, the LLC still loses only
  // what the private cache lost, although it holds more.
  const double l1 = h.models[0].Resident(1);
  const double llc = h.state.llc(0)->Resident(1);
  ASSERT_GT(llc, l1);
  EXPECT_DOUBLE_EQ(h.models[0].EjectBlocks(1, 1e9), l1);
  EXPECT_DOUBLE_EQ(h.models[0].Resident(1), 0.0);
  EXPECT_DOUBLE_EQ(h.state.llc(0)->Resident(1), llc - l1);
}

TEST(HierarchicalCacheTest, FlushOnlyClearsThePrivateCache) {
  Harness h(CmpTopology(), 20);
  h.models[0].RunChunk(1, TestWs(), 10.0);
  h.models[0].Flush();
  EXPECT_DOUBLE_EQ(h.models[0].Resident(1), 0.0);
  EXPECT_GT(h.state.llc(0)->Resident(1), 0.0);
}

TEST(HierarchicalCacheTest, NoLlcStateStillTracksNodes) {
  // LLC disabled: reload misses can still be remote.
  TopologySpec spec = NumaTopology();
  spec.llc_kb = 0;
  Harness h(spec, 32);
  EXPECT_EQ(h.state.llc(0), nullptr);
  h.models[0].RunChunk(1, TestWs(), 10.0);
  const CacheChunkResult r = h.models[8].RunChunk(1, TestWs(), 1.0);
  EXPECT_DOUBLE_EQ(r.reload_llc_hits, 0.0);
  EXPECT_NEAR(r.reload_remote, r.reload_misses, 1e-9);
}

}  // namespace
}  // namespace affsched
