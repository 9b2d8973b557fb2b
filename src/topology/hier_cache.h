// HierarchicalCacheModel: the CacheModel implementation for hierarchical
// topologies.
//
// Each processor keeps its private footprint cache (the same analytic model
// the flat machine runs, uncolored: Validate rejects page colors on a
// hierarchy), but reload misses are further classified by where the missing
// blocks can be sourced, and Machine::ExecuteChunk weighs each class by its
// cost:
//
//   * blocks still resident in the processor's cluster-shared LLC are LLC
//     hits — a task migrating within its cluster rebuilds its private cache
//     from the LLC at a fraction of the memory fill cost;
//   * when the task last ran on a *different node*, the blocks that miss the
//     LLC are fetched across the interconnect from the previous node's
//     memory and pay the remote multiplier;
//   * everything else fills from local memory at the flat machine's cost.
//
// The LLC itself is a FootprintCache shared by the cluster's processors
// (capacity in the same working-set block units, so a task's footprint can
// outlive its private-cache copy), and a machine-wide directory remembers
// the node each task last ran on. Both live in TopologyCacheState, owned by
// the Machine; the per-processor models hold non-owning pointers.
//
// Coherence invalidations (EjectBlocks) erode the LLC copy as well as the
// private one, by the amount the private cache actually lost; thread
// turnover (ReplaceOwnerData) likewise releases the dead data at both
// levels. Flush only clears the private cache — it models the Section 4
// per-processor "migrating" treatment, not a machine-wide wipe.

#ifndef SRC_TOPOLOGY_HIER_CACHE_H_
#define SRC_TOPOLOGY_HIER_CACHE_H_

#include <memory>
#include <vector>

#include "src/cache/footprint.h"
#include "src/topology/topology.h"

namespace affsched {

// Shared per-machine state: one LLC per cluster (when the topology has an
// LLC tier) plus the owner -> last-node directory used to classify remote
// fills. The directory is indexed by owner id (worker ids are dense from 1),
// one entry per worker machine-wide.
class TopologyCacheState {
 public:
  static constexpr size_t kNoNode = static_cast<size_t>(-1);

  // `llc_capacity_blocks` <= 0 disables the LLC tier (pure-NUMA topologies
  // still track last nodes).
  TopologyCacheState(const Topology& topology, double llc_capacity_blocks, size_t llc_ways);

  // The cluster's shared LLC, or nullptr when the topology has none.
  FootprintCache* llc(size_t cluster);

  size_t LastNode(CacheOwner owner) const;
  void SetLastNode(CacheOwner owner, size_t node);
  void Forget(CacheOwner owner);

 private:
  std::vector<std::unique_ptr<FootprintCache>> llcs_;
  std::vector<size_t> last_node_;  // kNoNode past the end and for forgotten owners
};

class HierarchicalCacheModel final : public CacheModel {
 public:
  // `state` outlives the model (both are owned by the Machine).
  HierarchicalCacheModel(double l1_capacity_blocks, size_t l1_ways, const Topology& topology,
                         TopologyCacheState* state, size_t proc);

  CacheChunkResult RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                            double seconds) override;

  double Resident(CacheOwner owner) const override { return l1_.Resident(owner); }
  double Occupied() const override { return l1_.Occupied(); }
  double capacity() const override { return l1_.capacity(); }
  double MaxResident(double blocks) const override { return l1_.MaxResident(blocks); }
  void Flush() override { l1_.Flush(); }
  void EjectFraction(CacheOwner owner, double fraction) override;
  double EjectBlocks(CacheOwner owner, double blocks) override;
  void ReplaceOwnerData(CacheOwner owner, double keep_fraction) override;
  void RemoveOwner(CacheOwner owner) override;

  // The private-cache model (test hooks live there).
  FootprintCache& l1() { return l1_; }

 private:
  FootprintCache l1_;
  TopologyCacheState* state_;
  size_t cluster_;
  size_t node_;
};

}  // namespace affsched

#endif  // SRC_TOPOLOGY_HIER_CACHE_H_
