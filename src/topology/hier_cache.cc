#include "src/topology/hier_cache.h"

#include <algorithm>

#include "src/common/check.h"

namespace affsched {

TopologyCacheState::TopologyCacheState(const Topology& topology, double llc_capacity_blocks,
                                       size_t llc_ways) {
  if (llc_capacity_blocks > 0.0) {
    llcs_.reserve(topology.num_clusters());
    for (size_t c = 0; c < topology.num_clusters(); ++c) {
      llcs_.push_back(std::make_unique<FootprintCache>(llc_capacity_blocks, llc_ways));
    }
  }
}

FootprintCache* TopologyCacheState::llc(size_t cluster) {
  if (llcs_.empty()) {
    return nullptr;
  }
  AFF_CHECK(cluster < llcs_.size());
  return llcs_[cluster].get();
}

size_t TopologyCacheState::LastNode(CacheOwner owner) const {
  return owner < last_node_.size() ? last_node_[owner] : kNoNode;
}

void TopologyCacheState::SetLastNode(CacheOwner owner, size_t node) {
  if (owner >= last_node_.size()) {
    last_node_.resize(owner + 1, kNoNode);
  }
  last_node_[owner] = node;
}

void TopologyCacheState::Forget(CacheOwner owner) {
  if (owner < last_node_.size()) {
    last_node_[owner] = kNoNode;
  }
}

HierarchicalCacheModel::HierarchicalCacheModel(double l1_capacity_blocks, size_t l1_ways,
                                               const Topology& topology,
                                               TopologyCacheState* state, size_t proc)
    : l1_(l1_capacity_blocks, l1_ways),
      state_(state),
      cluster_(topology.ClusterOf(proc)),
      node_(topology.NodeOf(proc)) {
  AFF_CHECK(state_ != nullptr);
}

CacheChunkResult HierarchicalCacheModel::RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                                                  double seconds) {
  CacheChunkResult result = l1_.RunChunk(owner, ws, seconds);
  FootprintCache* llc = state_->llc(cluster_);
  if (result.reload_misses > 0.0) {
    if (llc != nullptr) {
      // Blocks the cluster LLC still holds refill the private cache cheaply.
      result.reload_llc_hits = std::min(result.reload_misses, llc->Resident(owner));
    }
    const size_t prev_node = state_->LastNode(owner);
    if (prev_node != TopologyCacheState::kNoNode && prev_node != node_) {
      // The task's data still lives in the previous node's memory: whatever
      // the LLC cannot serve crosses the interconnect.
      result.reload_remote = result.reload_misses - result.reload_llc_hits;
    }
  }
  if (llc != nullptr) {
    // The same execution evolves the shared LLC footprint (larger capacity,
    // shared eviction pressure from the cluster's other tasks).
    llc->RunChunk(owner, ws, seconds);
  }
  state_->SetLastNode(owner, node_);
  return result;
}

void HierarchicalCacheModel::EjectFraction(CacheOwner owner, double fraction) {
  l1_.EjectFraction(owner, fraction);
  if (FootprintCache* llc = state_->llc(cluster_)) {
    llc->EjectFraction(owner, fraction);
  }
}

double HierarchicalCacheModel::EjectBlocks(CacheOwner owner, double blocks) {
  const double removed = l1_.EjectBlocks(owner, blocks);
  if (FootprintCache* llc = state_->llc(cluster_)) {
    // An invalidation removes the line machine-wide, including the LLC copy:
    // the lines the private cache held, so the LLC loses the same amount.
    llc->EjectBlocks(owner, removed);
  }
  return removed;
}

void HierarchicalCacheModel::ReplaceOwnerData(CacheOwner owner, double keep_fraction) {
  l1_.ReplaceOwnerData(owner, keep_fraction);
  if (FootprintCache* llc = state_->llc(cluster_)) {
    llc->ReplaceOwnerData(owner, keep_fraction);
  }
}

void HierarchicalCacheModel::RemoveOwner(CacheOwner owner) {
  l1_.RemoveOwner(owner);
  if (FootprintCache* llc = state_->llc(cluster_)) {
    llc->RemoveOwner(owner);
  }
  state_->Forget(owner);
}

}  // namespace affsched
