// Coherence modelling: shared-data writes invalidate sibling workers' cached
// copies (the Symmetry's invalidation-based protocol).

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/engine/engine.h"
#include "src/machine/machine.h"
#include "src/sched/factory.h"

namespace affsched {
namespace {

TEST(FootprintEjectBlocksTest, RemovesExactCount) {
  FootprintCache cache(4096.0);
  cache.SetResident(1, 1000.0);
  cache.EjectBlocks(1, 250.0);
  EXPECT_DOUBLE_EQ(cache.Resident(1), 750.0);
}

TEST(FootprintEjectBlocksTest, ClampsAtZero) {
  FootprintCache cache(4096.0);
  cache.SetResident(1, 100.0);
  cache.EjectBlocks(1, 1000.0);
  EXPECT_DOUBLE_EQ(cache.Resident(1), 0.0);
}

TEST(MachineCoherenceTest, SharedWritesErodeSiblingFootprints) {
  MachineConfig config;
  config.num_processors = 2;
  Machine machine(config);
  WorkingSetParams ws{.blocks = 2000.0, .buildup_tau_s = 0.005, .steady_miss_per_s = 0.0,
                      .shared_write_per_s = 10'000.0};

  // Warm worker 2 on processor 1.
  machine.ExecuteChunk(0, 1, 2, ws, Milliseconds(100));
  const double before = machine.processor(1).cache().Resident(2);
  ASSERT_GT(before, 1000.0);

  // Worker 1 runs on processor 0 writing shared data; worker 2 is a sibling.
  std::vector<Machine::SiblingPlacement> siblings = {{1, 2}};
  machine.ExecuteChunk(Milliseconds(100), 0, 1, ws, Milliseconds(100), siblings);

  // 10k writes/s x 0.1 s = 1000 invalidations.
  EXPECT_NEAR(machine.processor(1).cache().Resident(2), before - 1000.0, 1.0);
}

TEST(MachineCoherenceTest, NoSharingMeansNoErosion) {
  MachineConfig config;
  config.num_processors = 2;
  Machine machine(config);
  WorkingSetParams ws{.blocks = 2000.0, .buildup_tau_s = 0.005, .steady_miss_per_s = 0.0,
                      .shared_write_per_s = 0.0};
  machine.ExecuteChunk(0, 1, 2, ws, Milliseconds(100));
  const double before = machine.processor(1).cache().Resident(2);
  std::vector<Machine::SiblingPlacement> siblings = {{1, 2}};
  machine.ExecuteChunk(Milliseconds(100), 0, 1, ws, Milliseconds(100), siblings);
  EXPECT_DOUBLE_EQ(machine.processor(1).cache().Resident(2), before);
}

TEST(MachineCoherenceTest, SelfIsNotASibling) {
  MachineConfig config;
  config.num_processors = 1;
  Machine machine(config);
  WorkingSetParams ws{.blocks = 1000.0, .buildup_tau_s = 0.005, .steady_miss_per_s = 0.0,
                      .shared_write_per_s = 50'000.0};
  machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(100));
  const double warm = machine.processor(0).cache().Resident(1);
  std::vector<Machine::SiblingPlacement> siblings = {{0, 1}};
  machine.ExecuteChunk(Milliseconds(100), 0, 1, ws, Milliseconds(100), siblings);
  // Running again on the same processor must not invalidate itself.
  EXPECT_GE(machine.processor(0).cache().Resident(1), warm - 1.0);
}

TEST(EngineCoherenceTest, SharingIncreasesReloadStalls) {
  // Same parallel job, with and without shared-data writes: the sharing
  // version pays coherence-induced reload misses.
  auto make_app = [](double shared_rate) {
    AppProfile p;
    p.name = "shared";
    p.working_set = WorkingSetParams{.blocks = 2500.0, .buildup_tau_s = 0.01,
                                     .steady_miss_per_s = 0.0,
                                     .shared_write_per_s = shared_rate};
    p.thread_overlap = 1.0;
    p.max_parallelism = 4;
    p.build_graph = [](Rng&) {
      auto g = std::make_unique<ThreadGraph>();
      for (int i = 0; i < 4; ++i) {
        g->AddNode(Milliseconds(500));
      }
      return g;
    };
    return p;
  };
  MachineConfig machine;
  machine.num_processors = 4;

  auto reload_of = [&](double shared_rate) {
    Engine engine(machine, MakePolicy(PolicyKind::kDynamic), 3);
    const JobId id = engine.SubmitJob(make_app(shared_rate));
    engine.Run();
    return engine.job_stats(id).reload_stall_s;
  };
  EXPECT_GT(reload_of(20'000.0), reload_of(0.0) + 0.001);
}

TEST(AppsCoherenceTest, CalibrationOrdering) {
  // GRAVITY (tree mutation) shares most; MATRIX (private blocks) least.
  const auto profiles = DefaultProfiles();
  EXPECT_GT(profiles[2].working_set.shared_write_per_s,
            profiles[0].working_set.shared_write_per_s);
  EXPECT_GT(profiles[0].working_set.shared_write_per_s,
            profiles[1].working_set.shared_write_per_s);
}

}  // namespace
}  // namespace affsched
