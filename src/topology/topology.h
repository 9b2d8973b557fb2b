// Machine topology: the hierarchy a processor lives in.
//
// The paper's Symmetry is flat — twenty identical processors on one bus, so
// the cost of a reallocation depends only on *whether* a task moved. Every
// modern descendant is hierarchical: private per-core caches, cluster-shared
// last-level caches, NUMA nodes behind an interconnect — and the reload
// transient depends on *where* the task lands. This module describes that
// hierarchy (core -> cluster -> node -> machine) and the distance tier
// between two processors, which the accounting layer and the distance-aware
// policies consult:
//
//   tier 0  same processor      private cache still warm (paper's P^A)
//   tier 1  same cluster        L1 cold, cluster LLC warm (partial reuse)
//   tier 2  same node           LLC cold, fills from local memory (P^NA)
//   tier 3  cross node          fills cross the interconnect (P^NA x remote)
//
// The Machine (src/machine) builds the hierarchy's caches from the same
// description: one shared LLC per cluster, and a directory of the node each
// task last ran on, from which it decides where each reload miss is served.
//
// The `symmetry-flat` preset describes the paper's machine: one cluster, one
// node, no LLC. Running under it is byte-identical to a machine built with
// no topology at all (pinned by tests/golden/).

#ifndef SRC_TOPOLOGY_TOPOLOGY_H_
#define SRC_TOPOLOGY_TOPOLOGY_H_

#include <cstddef>
#include <string>
#include <vector>

namespace affsched {

// Number of distance tiers (same-core / same-cluster / same-node / cross-node).
inline constexpr size_t kNumDistanceTiers = 4;

// Stable lowercase identifier for each tier ("same_core", "same_cluster",
// "same_node", "cross_node"), used in JSON and metric names.
const char* DistanceTierName(size_t tier);

// A declarative topology description. Grouping is regular: processor p lives
// in cluster p / cores_per_cluster, and cluster c in node
// c / clusters_per_node; a count of 0 means "all of them share one".
struct TopologySpec {
  std::string name = "symmetry-flat";
  // Processors per cluster (0 = all processors in a single cluster).
  size_t cores_per_cluster = 0;
  // Clusters per node (0 = all clusters in a single node).
  size_t clusters_per_node = 0;
  // Capacity of the cluster-shared last-level cache (0 disables the LLC tier).
  size_t llc_kb = 0;
  // LLC line size and associativity (only meaningful when llc_kb > 0). The
  // line size is recorded in the spec string but changes no result: the
  // Machine counts LLC capacity in the private caches' working-set blocks.
  size_t llc_line_bytes = 64;
  size_t llc_ways = 8;
  // Fill cost of a block found in the cluster LLC, relative to a full memory
  // miss service (an LLC hit is a fraction of a memory fetch).
  double llc_hit_factor = 0.25;
  // Cost multiplier for fills sourced from a remote node's memory.
  double remote_multiplier = 1.6;

  // One node means every cluster (or the single cluster) shares memory.
  bool SingleNode() const { return cores_per_cluster == 0 || clusters_per_node == 0; }

  // Flat = the paper's machine: no LLC tier and no remote memory, so every
  // migration costs the same and the hierarchy adds nothing.
  bool IsFlat() const { return llc_kb == 0 && SingleNode(); }

  // LLC capacity expressed in working-set blocks of `line_bytes` each (the
  // unit the footprint model tracks; the Symmetry's private caches use 16).
  double LlcCapacityBlocks(size_t line_bytes) const;

  // Canonical key=value form; ParseTopologySpec round-trips it exactly.
  std::string ToSpecString() const;

  // Returns an empty string if the spec is valid for a machine of
  // `num_processors`, else a human-readable error.
  std::string Validate(size_t num_processors) const;
};

// Presets. `symmetry-flat` is the paper's bus machine; `cmp-2x10` is a
// chip-multiprocessor (2 clusters of 10 cores, each pair sharing a 512 KB
// LLC, one memory); `numa-4x8` is a NUMA box (4 nodes of 8 cores, a 1 MB LLC
// per node, remote fills 1.6x).
TopologySpec SymmetryFlatTopology();
TopologySpec CmpTopology();
TopologySpec NumaTopology();

// All presets, in listing order.
std::vector<TopologySpec> TopologyPresets();

// Looks up a preset by name. Returns false if unknown.
bool TopologyPresetFromName(const std::string& name, TopologySpec* spec);

// Parses "preset" or "preset,key=value,..." or "key=value,...". Keys:
// name, cores-per-cluster, clusters-per-node, llc-kb, llc-line, llc-ways,
// llc-factor, remote. Overrides apply on top of the preset (default
// symmetry-flat). Returns false and sets *error on failure.
bool ParseTopologySpec(const std::string& text, TopologySpec* spec, std::string* error);

// Human-readable preset table for `simctl --list-topologies`.
std::string RenderTopologyList();

// The concrete topology of one machine: the spec instantiated over
// `num_processors` processors, with each processor's cluster and node.
class Topology {
 public:
  Topology(const TopologySpec& spec, size_t num_processors);

  const TopologySpec& spec() const { return spec_; }
  size_t num_processors() const { return cluster_of_.size(); }
  size_t num_clusters() const { return num_clusters_; }
  size_t num_nodes() const { return num_nodes_; }

  size_t ClusterOf(size_t proc) const;
  size_t NodeOf(size_t proc) const;

  // Distance tier between two processors (0..kNumDistanceTiers-1), computed
  // from their clusters and nodes. Symmetric, zero on the diagonal, and an
  // ultrametric (max of any two legs bounds the third), so the triangle
  // inequality holds.
  size_t TierBetween(size_t a, size_t b) const;

 private:
  TopologySpec spec_;
  size_t num_clusters_ = 1;
  size_t num_nodes_ = 1;
  std::vector<size_t> cluster_of_;
  std::vector<size_t> node_of_;
};

}  // namespace affsched

#endif  // SRC_TOPOLOGY_TOPOLOGY_H_
