#include "src/topology/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

namespace affsched {
namespace {

TEST(TopologySpecTest, FlatPresetIsFlat) {
  const TopologySpec flat = SymmetryFlatTopology();
  EXPECT_EQ(flat.name, "symmetry-flat");
  EXPECT_TRUE(flat.IsFlat());
  EXPECT_TRUE(flat.SingleNode());
}

TEST(TopologySpecTest, HierarchicalPresetsAreNotFlat) {
  EXPECT_FALSE(CmpTopology().IsFlat());
  EXPECT_TRUE(CmpTopology().SingleNode());  // one memory: no remote tier
  EXPECT_FALSE(NumaTopology().IsFlat());
  EXPECT_FALSE(NumaTopology().SingleNode());
}

TEST(TopologySpecTest, PresetLookupFindsAllPresets) {
  for (const TopologySpec& preset : TopologyPresets()) {
    TopologySpec found;
    EXPECT_TRUE(TopologyPresetFromName(preset.name, &found));
    EXPECT_EQ(found.name, preset.name);
  }
  TopologySpec spec;
  EXPECT_FALSE(TopologyPresetFromName("no-such-topology", &spec));
}

TEST(TopologySpecTest, LlcCapacityBlocks) {
  const TopologySpec cmp = CmpTopology();  // 512 KB, 64 B lines
  EXPECT_DOUBLE_EQ(cmp.LlcCapacityBlocks(64), 512.0 * 1024.0 / 64.0);
}

TEST(TopologySpecTest, SpecStringRoundTrips) {
  for (const TopologySpec& preset : TopologyPresets()) {
    TopologySpec parsed;
    std::string error;
    ASSERT_TRUE(ParseTopologySpec(preset.ToSpecString(), &parsed, &error)) << error;
    EXPECT_EQ(parsed.name, preset.name);
    EXPECT_EQ(parsed.cores_per_cluster, preset.cores_per_cluster);
    EXPECT_EQ(parsed.clusters_per_node, preset.clusters_per_node);
    EXPECT_EQ(parsed.llc_kb, preset.llc_kb);
    EXPECT_EQ(parsed.llc_line_bytes, preset.llc_line_bytes);
    EXPECT_EQ(parsed.llc_ways, preset.llc_ways);
    EXPECT_DOUBLE_EQ(parsed.llc_hit_factor, preset.llc_hit_factor);
    EXPECT_DOUBLE_EQ(parsed.remote_multiplier, preset.remote_multiplier);
    // And the canonical form itself is a fixed point.
    EXPECT_EQ(parsed.ToSpecString(), preset.ToSpecString());
  }
}

TEST(TopologySpecTest, ParseAppliesOverridesOnPreset) {
  TopologySpec spec;
  std::string error;
  ASSERT_TRUE(ParseTopologySpec("cmp-2x10,llc-kb=1024,remote=2.5", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "cmp-2x10");
  EXPECT_EQ(spec.llc_kb, 1024u);
  EXPECT_DOUBLE_EQ(spec.remote_multiplier, 2.5);
  EXPECT_EQ(spec.cores_per_cluster, 10u);  // untouched preset field
}

TEST(TopologySpecTest, ParseWithoutPresetStartsFlat) {
  TopologySpec spec;
  std::string error;
  ASSERT_TRUE(ParseTopologySpec("cores-per-cluster=4,llc-kb=256", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "custom");
  EXPECT_EQ(spec.cores_per_cluster, 4u);
  EXPECT_EQ(spec.llc_kb, 256u);
}

TEST(TopologySpecTest, ParseRejectsGarbage) {
  TopologySpec spec;
  std::string error;
  EXPECT_FALSE(ParseTopologySpec("", &spec, &error));
  EXPECT_FALSE(ParseTopologySpec("no-such-preset", &spec, &error));
  EXPECT_NE(error.find("unknown topology preset"), std::string::npos);
  EXPECT_FALSE(ParseTopologySpec("cmp-2x10,bogus-key=1", &spec, &error));
  EXPECT_NE(error.find("unknown topology spec key"), std::string::npos);
  // Numbers must span their whole token, be finite, and unsigned where the
  // field is a count.
  for (const char* text :
       {"cmp-2x10,notakeyvalue", "numa-4x8,remote=nan", "numa-4x8,remote=inf",
        "cmp-2x10,llc-factor=nan", "cmp-2x10,llc-kb=-1", "cmp-2x10,llc-kb=512k",
        "numa-4x8,cores-per-cluster=", "numa-4x8,llc-ways=+8", "numa-4x8,llc-line=6 4"}) {
    error.clear();
    EXPECT_FALSE(ParseTopologySpec(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(TopologySpecTest, ValidateCatchesDegenerateLevels) {
  EXPECT_NE(SymmetryFlatTopology().Validate(0).find("procs=0"), std::string::npos);
  EXPECT_TRUE(SymmetryFlatTopology().Validate(1).empty());

  TopologySpec spec = CmpTopology();
  spec.llc_line_bytes = 0;
  EXPECT_FALSE(spec.Validate(20).empty());

  spec = CmpTopology();
  spec.llc_ways = 0;
  EXPECT_FALSE(spec.Validate(20).empty());

  spec = CmpTopology();
  spec.llc_kb = 0;  // disables the LLC tier entirely: valid again
  EXPECT_TRUE(spec.Validate(20).empty());

  // An "enabled" LLC smaller than one line is a zero-capacity level.
  spec = CmpTopology();
  spec.llc_kb = 1;
  spec.llc_line_bytes = 4096;
  EXPECT_NE(spec.Validate(20).find("zero-capacity"), std::string::npos);

  spec = CmpTopology();
  spec.llc_hit_factor = 0.0;
  EXPECT_FALSE(spec.Validate(20).empty());

  spec = CmpTopology();
  spec.llc_hit_factor = std::nan("");
  EXPECT_FALSE(spec.Validate(20).empty());

  spec = NumaTopology();
  spec.remote_multiplier = 0.5;
  EXPECT_FALSE(spec.Validate(20).empty());

  spec = NumaTopology();
  spec.remote_multiplier = std::nan("");
  EXPECT_FALSE(spec.Validate(20).empty());
}

TEST(TopologySpecTest, RenderTopologyListNamesEveryPreset) {
  const std::string listing = RenderTopologyList();
  for (const TopologySpec& preset : TopologyPresets()) {
    EXPECT_NE(listing.find(preset.name), std::string::npos) << listing;
  }
  EXPECT_NE(listing.find("--topology"), std::string::npos);
}

TEST(TopologyTest, DistanceTierNames) {
  EXPECT_STREQ(DistanceTierName(0), "same_core");
  EXPECT_STREQ(DistanceTierName(1), "same_cluster");
  EXPECT_STREQ(DistanceTierName(2), "same_node");
  EXPECT_STREQ(DistanceTierName(3), "cross_node");
}

TEST(TopologyTest, FlatGroupsEverythingTogether) {
  const Topology topo(SymmetryFlatTopology(), 20);
  EXPECT_EQ(topo.num_processors(), 20u);
  EXPECT_EQ(topo.num_clusters(), 1u);
  EXPECT_EQ(topo.num_nodes(), 1u);
  EXPECT_EQ(topo.TierBetween(0, 0), 0u);
  EXPECT_EQ(topo.TierBetween(0, 19), 1u);  // off-core is at most same-cluster
}

TEST(TopologyTest, CmpGrouping) {
  const Topology topo(CmpTopology(), 20);
  EXPECT_EQ(topo.num_clusters(), 2u);
  EXPECT_EQ(topo.num_nodes(), 1u);
  EXPECT_EQ(topo.ClusterOf(0), 0u);
  EXPECT_EQ(topo.ClusterOf(9), 0u);
  EXPECT_EQ(topo.ClusterOf(10), 1u);
  EXPECT_EQ(topo.TierBetween(0, 9), 1u);    // same cluster
  EXPECT_EQ(topo.TierBetween(0, 10), 2u);   // other cluster, same (only) node
}

TEST(TopologyTest, NumaGrouping) {
  const Topology topo(NumaTopology(), 32);
  EXPECT_EQ(topo.num_clusters(), 4u);
  EXPECT_EQ(topo.num_nodes(), 4u);
  EXPECT_EQ(topo.NodeOf(0), 0u);
  EXPECT_EQ(topo.NodeOf(31), 3u);
  EXPECT_EQ(topo.TierBetween(0, 7), 1u);   // same cluster/node
  EXPECT_EQ(topo.TierBetween(0, 8), 3u);   // different node
}

// The matrix properties the accounting layer relies on: symmetric, zero
// diagonal, and triangle inequality (the tiers form an ultrametric).
TEST(TopologyTest, MatrixSymmetryDiagonalAndTriangleOnAllPresets) {
  const size_t procs[] = {1, 7, 20, 32};
  for (const TopologySpec& preset : TopologyPresets()) {
    for (size_t n : procs) {
      const Topology topo(preset, n);
      for (size_t a = 0; a < n; ++a) {
        EXPECT_EQ(topo.TierBetween(a, a), 0u);
        for (size_t b = 0; b < n; ++b) {
          EXPECT_EQ(topo.TierBetween(a, b), topo.TierBetween(b, a));
          EXPECT_LT(topo.TierBetween(a, b), kNumDistanceTiers);
          for (size_t c = 0; c < n; ++c) {
            EXPECT_LE(topo.TierBetween(a, c),
                      topo.TierBetween(a, b) + topo.TierBetween(b, c))
                << preset.name << " n=" << n << " a=" << a << " b=" << b << " c=" << c;
          }
        }
      }
    }
  }
}

TEST(TopologyTest, RaggedTailGoesInPartialGroups) {
  // 20 processors under numa-4x8: clusters of 8, 8, 4.
  const Topology topo(NumaTopology(), 20);
  EXPECT_EQ(topo.num_clusters(), 3u);
  EXPECT_EQ(topo.num_nodes(), 3u);
  EXPECT_EQ(topo.ClusterOf(16), 2u);
  EXPECT_EQ(topo.ClusterOf(19), 2u);
}

}  // namespace
}  // namespace affsched
