// Distance-aware affinity variants (Dyn-Aff-Cluster / Dyn-Aff-Node): the
// widened A.1/A.2 searches, and their exact reduction to the paper's Dyn-Aff
// at affinity_tier 0.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/runner/sweep.h"
#include "src/sched/dynamic.h"
#include "src/sched/factory.h"
#include "src/topology/topology.h"
#include "tests/sched/fake_view.h"

namespace affsched {
namespace {

// FakeSchedView over a real Topology: pairs of processors per cluster, two
// clusters per node (so an 8-processor view exercises tiers 0 through 3).
class ClusteredView : public FakeSchedView {
 public:
  ClusteredView(size_t num_procs, size_t cores_per_cluster, size_t clusters_per_node)
      : FakeSchedView(num_procs), topology_(MakeSpec(cores_per_cluster, clusters_per_node),
                                            num_procs) {}

  size_t DistanceTier(size_t from, size_t to) const override {
    return topology_.TierBetween(from, to);
  }

 private:
  static TopologySpec MakeSpec(size_t cores_per_cluster, size_t clusters_per_node) {
    TopologySpec spec;
    spec.name = "test";
    spec.cores_per_cluster = cores_per_cluster;
    spec.clusters_per_node = clusters_per_node;
    return spec;
  }
  Topology topology_;
};

TEST(TopologyPolicyTest, NamesMatchTheVariants) {
  EXPECT_EQ((DynamicOptions{.use_affinity = true, .affinity_tier = 1}).PolicyName(),
            "Dyn-Aff-Cluster");
  EXPECT_EQ((DynamicOptions{.use_affinity = true, .affinity_tier = 2}).PolicyName(),
            "Dyn-Aff-Node");
  EXPECT_EQ(PolicyKindName(PolicyKind::kDynAffCluster), "Dyn-Aff-Cluster");
  EXPECT_EQ(PolicyKindName(PolicyKind::kDynAffNode), "Dyn-Aff-Node");
}

TEST(TopologyPolicyTest, CliNamesRoundTrip) {
  for (PolicyKind kind : {PolicyKind::kDynAffCluster, PolicyKind::kDynAffNode}) {
    PolicyKind parsed;
    ASSERT_TRUE(PolicyKindFromName(PolicyKindCliName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
}

TEST(TopologyPolicyTest, TopologyFamilyIncludesDistanceVariants) {
  // The line-up the topology comparison sweeps on hierarchical machines
  // (EXPERIMENTS.md): Equipartition, Dynamic, and the exact/cluster/node
  // affinity variants.
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec(
      "smoke;reps=2;mixes=6;policies=equi,dynamic,dyn-aff,dyn-aff-cluster,dyn-aff-node;"
      "topology=cmp-2x10",
      &spec, &error))
      << error;
  const std::vector<PolicyKind> family = {PolicyKind::kEquipartition, PolicyKind::kDynamic,
                                          PolicyKind::kDynAff, PolicyKind::kDynAffCluster,
                                          PolicyKind::kDynAffNode};
  EXPECT_EQ(spec.policies, family);
}

TEST(TopologyPolicyTest, DefaultViewTreatsOffCoreAsOneTier) {
  // The SchedView default keeps non-topology-aware views working: 0 on the
  // diagonal, 1 everywhere else.
  FakeSchedView view(3);
  EXPECT_EQ(view.DistanceTier(1, 1), 0u);
  EXPECT_EQ(view.DistanceTier(0, 2), 1u);
}

TEST(TopologyPolicyTest, TierZeroReducesToFlatRuleA1) {
  // A runnable task remembered on a same-cluster *neighbour* is invisible to
  // plain Dyn-Aff (affinity_tier 0 consults only the freed processor's own
  // history).
  ClusteredView view(4, 2, 0);
  const JobId a = view.AddJob({.allocation = 0, .max_parallelism = 8, .demand = 1});
  view.procs[1].last_task = 42;  // proc 1 shares proc 0's cluster
  view.tasks[42] = {.job = a, .runnable = true};
  DynamicPolicy flat({.use_affinity = true});
  const auto decision = flat.OnProcessorAvailable(view, 0);
  ASSERT_EQ(decision.assignments.size(), 1u);
  EXPECT_EQ(decision.assignments[0].prefer_task, kNoOwner);  // plain requester grant
}

TEST(TopologyPolicyTest, ClusterVariantReunitesAcrossTheCluster) {
  ClusteredView view(4, 2, 0);
  const JobId a = view.AddJob({.allocation = 0, .max_parallelism = 8, .demand = 1});
  view.procs[1].last_task = 42;
  view.tasks[42] = {.job = a, .runnable = true};
  DynamicPolicy cluster({.use_affinity = true, .affinity_tier = 1});
  const auto decision = cluster.OnProcessorAvailable(view, 0);
  ASSERT_EQ(decision.assignments.size(), 1u);
  EXPECT_EQ(decision.assignments[0].job, a);
  EXPECT_EQ(decision.assignments[0].prefer_task, 42u);
}

TEST(TopologyPolicyTest, ClusterVariantStopsAtTheClusterBoundary) {
  // The remembered task lives in the *other* cluster (tier 2 under a
  // single-node grouping): Dyn-Aff-Cluster must not reach it, Dyn-Aff-Node
  // must.
  ClusteredView view(4, 2, 0);
  const JobId a = view.AddJob({.allocation = 0, .max_parallelism = 8, .demand = 1});
  view.procs[2].last_task = 42;
  view.tasks[42] = {.job = a, .runnable = true};

  DynamicPolicy cluster({.use_affinity = true, .affinity_tier = 1});
  const auto near = cluster.OnProcessorAvailable(view, 0);
  ASSERT_EQ(near.assignments.size(), 1u);
  EXPECT_EQ(near.assignments[0].prefer_task, kNoOwner);

  DynamicPolicy node({.use_affinity = true, .affinity_tier = 2});
  const auto wide = node.OnProcessorAvailable(view, 0);
  ASSERT_EQ(wide.assignments.size(), 1u);
  EXPECT_EQ(wide.assignments[0].prefer_task, 42u);
}

TEST(TopologyPolicyTest, OwnHistoryBeatsClusterPeers) {
  // Nearest surviving context wins: the freed processor's own history (tier
  // 0) is searched before any same-cluster peer (tier 1).
  ClusteredView view(4, 2, 0);
  const JobId a = view.AddJob({.allocation = 0, .max_parallelism = 8, .demand = 1});
  const JobId b = view.AddJob({.allocation = 0, .max_parallelism = 8, .demand = 1});
  view.procs[0].last_task = 7;
  view.tasks[7] = {.job = a, .runnable = true};
  view.procs[1].last_task = 9;
  view.tasks[9] = {.job = b, .runnable = true};
  DynamicPolicy cluster({.use_affinity = true, .affinity_tier = 1});
  const auto decision = cluster.OnProcessorAvailable(view, 0);
  ASSERT_EQ(decision.assignments.size(), 1u);
  EXPECT_EQ(decision.assignments[0].prefer_task, 7u);
}

TEST(TopologyPolicyTest, RuleA2FallsOutwardToAClusterNeighbour) {
  // Desired processor 2 is actively held; its cluster mate 3 is free. Plain
  // Dyn-Aff gives up on affinity and takes the first free processor (0);
  // Dyn-Aff-Cluster lands next to the task's context instead.
  ClusteredView view(4, 2, 0);
  const JobId a = view.AddJob({.allocation = 0, .max_parallelism = 8, .demand = 1,
                               .desired = 2});
  const JobId b = view.AddJob({.allocation = 1, .max_parallelism = 8});
  view.procs[2].holder = b;  // active, not willing: A.2 never preempts

  DynamicPolicy flat({.use_affinity = true});
  const auto flat_decision = flat.OnRequest(view, a);
  ASSERT_EQ(flat_decision.assignments.size(), 1u);
  EXPECT_EQ(flat_decision.assignments[0].proc, 0u);

  DynamicPolicy cluster({.use_affinity = true, .affinity_tier = 1});
  const auto cluster_decision = cluster.OnRequest(view, a);
  ASSERT_EQ(cluster_decision.assignments.size(), 1u);
  EXPECT_EQ(cluster_decision.assignments[0].proc, 3u);
}

TEST(TopologyPolicyTest, RuleA2StillPrefersTheDesiredProcessorItself) {
  ClusteredView view(4, 2, 0);
  const JobId a = view.AddJob({.allocation = 0, .max_parallelism = 8, .demand = 1,
                               .desired = 2});
  // Both the desired processor and its neighbour are free: minimal tier wins.
  DynamicPolicy cluster({.use_affinity = true, .affinity_tier = 1});
  const auto decision = cluster.OnRequest(view, a);
  ASSERT_EQ(decision.assignments.size(), 1u);
  EXPECT_EQ(decision.assignments[0].proc, 2u);
}

TEST(TopologyPolicyTest, NodeVariantRespectsNodeBoundaries) {
  // 8 procs, clusters of 2, nodes of 2 clusters: procs 4..7 are a different
  // node (tier 3) from the desired processor 0 — out of reach even for
  // Dyn-Aff-Node, which falls back to rule D.1's first free processor.
  ClusteredView view(8, 2, 2);
  const JobId a = view.AddJob({.allocation = 0, .max_parallelism = 8, .demand = 1,
                               .desired = 0});
  const JobId b = view.AddJob({.allocation = 4, .max_parallelism = 8});
  for (size_t p = 0; p < 4; ++p) {
    view.procs[p].holder = b;  // the whole home node is actively held
  }
  DynamicPolicy node({.use_affinity = true, .affinity_tier = 2});
  const auto decision = node.OnRequest(view, a);
  ASSERT_EQ(decision.assignments.size(), 1u);
  EXPECT_EQ(decision.assignments[0].proc, 4u);  // D.1, not a tier-3 A.2 grant
}

TEST(TopologyPolicyTest, FactoryBuildsDistanceVariants) {
  EXPECT_EQ(MakePolicy(PolicyKind::kDynAffCluster)->name(), "Dyn-Aff-Cluster");
  EXPECT_EQ(MakePolicy(PolicyKind::kDynAffNode)->name(), "Dyn-Aff-Node");
}

}  // namespace
}  // namespace affsched
