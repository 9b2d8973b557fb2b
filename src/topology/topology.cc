#include "src/topology/topology.h"

#include <cstdio>
#include <functional>
#include <sstream>

#include "src/common/check.h"
#include "src/common/spec_grammar.h"
#include "src/common/table.h"

namespace affsched {

const char* DistanceTierName(size_t tier) {
  switch (tier) {
    case 0:
      return "same_core";
    case 1:
      return "same_cluster";
    case 2:
      return "same_node";
    case 3:
      return "cross_node";
    default:
      AFF_CHECK_MSG(false, "distance tier out of range");
      return "";
  }
}

double TopologySpec::LlcCapacityBlocks(size_t line_bytes) const {
  AFF_CHECK(line_bytes > 0);
  return static_cast<double>(llc_kb * 1024) / static_cast<double>(line_bytes);
}

namespace {

// Doubles print with enough digits that ParseTopologySpec reads them back
// exactly.
std::string FormatExact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Shortest representation for human-facing listings (1.6, not
// 1.6000000000000001).
std::string FormatShort(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

std::string TopologySpec::ToSpecString() const {
  std::ostringstream o;
  o << "name=" << name << ",cores-per-cluster=" << cores_per_cluster
    << ",clusters-per-node=" << clusters_per_node << ",llc-kb=" << llc_kb
    << ",llc-line=" << llc_line_bytes << ",llc-ways=" << llc_ways
    << ",llc-factor=" << FormatExact(llc_hit_factor)
    << ",remote=" << FormatExact(remote_multiplier);
  return o.str();
}

std::string TopologySpec::Validate(size_t num_processors) const {
  if (num_processors == 0) {
    return "topology requires at least one processor (procs=0)";
  }
  if (llc_kb > 0) {
    if (llc_line_bytes == 0) {
      return "llc-line must be > 0 when the LLC tier is enabled (llc-kb > 0)";
    }
    if (llc_ways == 0) {
      return "llc-ways must be >= 1 when the LLC tier is enabled (llc-kb > 0)";
    }
    if (llc_kb * 1024 < llc_line_bytes) {
      return "LLC capacity is smaller than one LLC line (zero-capacity level)";
    }
  }
  if (!(llc_hit_factor > 0.0 && llc_hit_factor <= 1.0)) {
    return "llc-factor must be in (0, 1]: an LLC hit costs a fraction of a memory fill";
  }
  if (!(remote_multiplier >= 1.0)) {
    return "remote must be >= 1: a remote fill cannot be cheaper than a local one";
  }
  return "";
}

TopologySpec SymmetryFlatTopology() { return TopologySpec{}; }

TopologySpec CmpTopology() {
  TopologySpec spec;
  spec.name = "cmp-2x10";
  spec.cores_per_cluster = 10;
  spec.clusters_per_node = 0;  // one memory: a single-socket CMP
  spec.llc_kb = 512;
  spec.llc_line_bytes = 64;
  spec.llc_ways = 8;
  spec.llc_hit_factor = 0.25;
  spec.remote_multiplier = 1.0;  // unused: no remote memory
  return spec;
}

TopologySpec NumaTopology() {
  TopologySpec spec;
  spec.name = "numa-4x8";
  spec.cores_per_cluster = 8;
  spec.clusters_per_node = 1;  // each cluster is its own node
  spec.llc_kb = 1024;
  spec.llc_line_bytes = 64;
  spec.llc_ways = 16;
  spec.llc_hit_factor = 0.25;
  spec.remote_multiplier = 1.6;
  return spec;
}

std::vector<TopologySpec> TopologyPresets() {
  return {SymmetryFlatTopology(), CmpTopology(), NumaTopology()};
}

bool TopologyPresetFromName(const std::string& name, TopologySpec* spec) {
  for (const TopologySpec& preset : TopologyPresets()) {
    if (preset.name == name) {
      *spec = preset;
      return true;
    }
  }
  return false;
}

namespace {

bool LoadTopologyPreset(TopologySpec* spec, const std::string& preset) {
  if (preset.empty()) {
    *spec = SymmetryFlatTopology();
    spec->name = "custom";
    return true;
  }
  return TopologyPresetFromName(preset, spec);
}

bool ApplyTopologyKey(TopologySpec* spec, const std::string& key, const std::string& value,
                      std::string* error) {
  if (key == "name") {
    spec->name = value;
    return true;
  }
  if (key == "cores-per-cluster") {
    return ReadSpecNumber(key, value, &spec->cores_per_cluster, error);
  }
  if (key == "clusters-per-node") {
    return ReadSpecNumber(key, value, &spec->clusters_per_node, error);
  }
  if (key == "llc-kb") {
    return ReadSpecNumber(key, value, &spec->llc_kb, error);
  }
  if (key == "llc-line") {
    return ReadSpecNumber(key, value, &spec->llc_line_bytes, error);
  }
  if (key == "llc-ways") {
    return ReadSpecNumber(key, value, &spec->llc_ways, error);
  }
  if (key == "llc-factor") {
    return ReadSpecNumber(key, value, &spec->llc_hit_factor, error);
  }
  if (key == "remote") {
    return ReadSpecNumber(key, value, &spec->remote_multiplier, error);
  }
  return SpecError(error, "unknown topology spec key '" + key + "'");
}

}  // namespace

bool ParseTopologySpec(const std::string& text, TopologySpec* spec, std::string* error) {
  return ParseSpec(text, ',', "topology", std::bind_front(LoadTopologyPreset, spec),
                   std::bind_front(ApplyTopologyKey, spec), error);
}

std::string RenderTopologyList() {
  TextTable table;
  table.SetHeader({"topology", "grouping", "cluster LLC", "remote", "tiers"});
  for (const TopologySpec& spec : TopologyPresets()) {
    std::string grouping;
    if (spec.cores_per_cluster == 0) {
      grouping = "single cluster";
    } else {
      grouping = std::to_string(spec.cores_per_cluster) + " cores/cluster";
      grouping += spec.SingleNode()
                      ? ", single node"
                      : ", " + std::to_string(spec.clusters_per_node) + " clusters/node";
    }
    const std::string llc =
        spec.llc_kb == 0 ? "none"
                         : std::to_string(spec.llc_kb) + " KB x" +
                               std::to_string(spec.llc_ways) + " (hit " +
                               FormatShort(spec.llc_hit_factor) + " fill)";
    const std::string remote =
        spec.SingleNode() ? "n/a" : FormatShort(spec.remote_multiplier) + "x";
    const std::string tiers = spec.IsFlat() ? "flat" : (spec.SingleNode() ? "0-2" : "0-3");
    table.AddRow({spec.name, grouping, llc, remote, tiers});
  }
  return table.Render() +
         "\nSelect with --topology=<name> (or topology=<name> in a sweep spec); append "
         ",key=value overrides: cores-per-cluster, clusters-per-node, llc-kb, llc-line, "
         "llc-ways, llc-factor, remote.\n";
}

Topology::Topology(const TopologySpec& spec, size_t num_processors) : spec_(spec) {
  const std::string problem = spec.Validate(num_processors);
  AFF_CHECK_MSG(problem.empty(), problem.c_str());
  cluster_of_.resize(num_processors);
  node_of_.resize(num_processors);
  for (size_t p = 0; p < num_processors; ++p) {
    const size_t cluster = spec_.cores_per_cluster == 0 ? 0 : p / spec_.cores_per_cluster;
    cluster_of_[p] = cluster;
    node_of_[p] = spec_.clusters_per_node == 0 ? 0 : cluster / spec_.clusters_per_node;
  }
  num_clusters_ = cluster_of_.back() + 1;
  num_nodes_ = node_of_.back() + 1;
}

size_t Topology::ClusterOf(size_t proc) const {
  AFF_CHECK(proc < cluster_of_.size());
  return cluster_of_[proc];
}

size_t Topology::NodeOf(size_t proc) const {
  AFF_CHECK(proc < node_of_.size());
  return node_of_[proc];
}

size_t Topology::TierBetween(size_t a, size_t b) const {
  AFF_CHECK(a < cluster_of_.size() && b < cluster_of_.size());
  if (a == b) {
    return 0;
  }
  if (cluster_of_[a] == cluster_of_[b]) {
    return 1;
  }
  return node_of_[a] == node_of_[b] ? 2 : 3;
}

}  // namespace affsched
