// Coherence modelling: shared-data writes invalidate sibling workers' cached
// copies (the Symmetry's invalidation-based protocol), settled lazily.

#include <gtest/gtest.h>

#include <vector>

#include "src/apps/apps.h"
#include "src/cache/exact_model.h"
#include "src/cache/footprint.h"
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

// The engine settles shared-write invalidations lazily: each job accrues
// them as a debt, and each worker ejects what it owes from its own cache
// (ExecuteChunk's `owed`) at its next chunk start. So the owed blocks leave
// the footprint before the chunk runs, and they are charged to the bus.
TEST(MachineCoherenceTest, SharedWritesErodeSiblingFootprints) {
  MachineConfig config;
  config.num_processors = 2;
  Machine lazy(config);
  Machine eager(config);
  WorkingSetParams ws{.blocks = 2000.0, .buildup_tau_s = 0.005, .steady_miss_per_s = 0.0,
                      .shared_write_per_s = 10'000.0};

  // Warm worker 2 on processor 1.
  lazy.ExecuteChunk(0, 1, 2, ws, Milliseconds(100));
  eager.ExecuteChunk(0, 1, 2, ws, Milliseconds(100));
  ASSERT_GT(lazy.processor(1).cache().Resident(2), 1000.0);

  // A sibling's 10k writes/s x 0.1 s = 1000 invalidations, owed at worker
  // 2's next chunk; the twin has them ejected before that chunk instead.
  ASSERT_EQ(eager.processor(1).cache().EjectBlocks(2, 1000.0), 1000.0);
  const auto paid = lazy.ExecuteChunk(Milliseconds(100), 1, 2, ws, Milliseconds(1), 1000.0);
  const auto ejected = eager.ExecuteChunk(Milliseconds(100), 1, 2, ws, Milliseconds(1));

  EXPECT_GT(paid.reload_misses, 0.0);
  EXPECT_EQ(paid.reload_misses, ejected.reload_misses);
  EXPECT_EQ(paid.wall, ejected.wall);
  EXPECT_EQ(lazy.processor(1).cache().Resident(2), eager.processor(1).cache().Resident(2));
  EXPECT_DOUBLE_EQ(lazy.bus().total_transfers(), eager.bus().total_transfers() + 1000.0);
}

// Nothing owed, nothing eroded: a writer's chunk (owed 0) leaves its
// siblings' caches alone, since the engine keeps the debt, and invalidating
// 0 blocks charges the bus nothing.
TEST(MachineCoherenceTest, NoSharingMeansNoErosion) {
  MachineConfig config;
  config.num_processors = 2;
  Machine machine(config);
  WorkingSetParams ws{.blocks = 2000.0, .buildup_tau_s = 0.005, .steady_miss_per_s = 0.0,
                      .shared_write_per_s = 10'000.0};
  machine.ExecuteChunk(0, 1, 2, ws, Milliseconds(100));
  const double before = machine.processor(1).cache().Resident(2);

  machine.ExecuteChunk(Milliseconds(100), 0, 1, ws, Milliseconds(100), /*owed=*/0.0);
  EXPECT_EQ(machine.processor(1).cache().Resident(2), before);
  const double traffic = machine.bus().total_transfers();
  machine.Invalidate(Milliseconds(200), 1, 2, 0.0);
  EXPECT_EQ(machine.processor(1).cache().Resident(2), before);
  EXPECT_EQ(machine.bus().total_transfers(), traffic);
}

TEST(MachineCoherenceTest, SelfIsNotASibling) {
  MachineConfig config;
  config.num_processors = 1;
  Machine machine(config);
  WorkingSetParams ws{.blocks = 1000.0, .buildup_tau_s = 0.005, .steady_miss_per_s = 0.0,
                      .shared_write_per_s = 50'000.0};
  machine.ExecuteChunk(0, 0, 1, ws, Milliseconds(100));
  const double warm = machine.processor(0).cache().Resident(1);
  machine.ExecuteChunk(Milliseconds(100), 0, 1, ws, Milliseconds(100));
  // Running again on the same processor must not invalidate itself: a
  // writer's own chunk owes nothing (DispatcherTest.OwnSharedWritesAreNotOwedBack
  // checks the engine's side).
  EXPECT_GE(machine.processor(0).cache().Resident(1), warm - 1.0);
}

// Why lazy settlement keeps the analytic substrate's arithmetic, colored or
// not: between a running worker's own chunks only its siblings'
// invalidations touch its footprint, so ejecting each sibling share as it is
// written (the eager order) and ejecting their sum, debt less mark, at the
// next chunk start leave the same footprint: successive min(e_i, r) steps
// are one min(sum e_i, r). A second, idle owner shares the cache throughout.
void ExpectSettledSumMatchesEagerShares(FootprintCache& eager, FootprintCache& lazy) {
  const WorkingSetParams ws{.blocks = 1500.0, .buildup_tau_s = 0.01, .steady_miss_per_s = 500.0};
  eager.SetResident(2, 300.0);
  lazy.SetResident(2, 300.0);
  // Sibling shares written between the owner's chunks, one list per chunk:
  // fractional shares, none, a sum that clamps the footprint to zero.
  const std::vector<std::vector<double>> rounds = {
      {3.7, 12.5, 0.2}, {}, {250.0, 80.25}, {0.2, 0.2, 0.2, 0.2, 0.2}, {5000.0}, {41.0, 1.5}};
  double debt = 0.0;
  double mark = 0.0;
  for (const std::vector<double>& shares : rounds) {
    eager.RunChunk(1, ws, 0.002);
    lazy.RunChunk(1, ws, 0.002);
    for (const double share : shares) {
      eager.EjectBlocks(1, share);
      debt += share;
    }
    lazy.EjectBlocks(1, debt - mark);
    mark = debt;
    EXPECT_NEAR(lazy.Resident(1), eager.Resident(1), 1e-12 * eager.Resident(1));
    EXPECT_NEAR(lazy.Resident(2), eager.Resident(2), 1e-12 * eager.Resident(2));
  }
  EXPECT_GT(lazy.Resident(1), 0.0);  // regrown after the clamp
  EXPECT_GT(lazy.Resident(2), 0.0);
}

TEST(LazyCoherenceTest, FootprintSettledSumMatchesEagerShares) {
  FootprintCache eager(4096.0);
  FootprintCache lazy(4096.0);
  ExpectSettledSumMatchesEagerShares(eager, lazy);
}

TEST(LazyCoherenceTest, PartitionedSettledSumMatchesEagerShares) {
  FootprintCache eager(4096.0, 2, /*colors=*/8);
  FootprintCache lazy(4096.0, 2, /*colors=*/8);
  for (FootprintCache* cache : {&eager, &lazy}) {
    cache->ReserveColors(1, 0b0011);
    cache->ReserveColors(2, 0b0110);
  }
  ExpectSettledSumMatchesEagerShares(eager, lazy);
}

// The exact substrate invalidates whole lines, so it rounds the settled sum
// once: ten 0.2-block shares (a MATRIX chunk's share) each rounded to no
// line when ejected one by one, and settle to two lines together.
TEST(LazyCoherenceTest, ExactCacheRoundsTheSettledSumOnce) {
  const WorkingSetParams ws{.blocks = 1000.0, .buildup_tau_s = 0.05, .steady_miss_per_s = 0.0};
  ExactCacheModel eager(CacheGeometry{}, /*seed=*/42);
  ExactCacheModel lazy(CacheGeometry{}, /*seed=*/42);
  eager.RunChunk(1, ws, 0.2);
  lazy.RunChunk(1, ws, 0.2);
  const double warm = eager.Resident(1);
  ASSERT_GT(warm, 100.0);
  ASSERT_EQ(lazy.Resident(1), warm);

  double debt = 0.0;
  for (int i = 0; i < 10; ++i) {
    eager.EjectBlocks(1, 0.2);
    debt += 0.2;
  }
  lazy.EjectBlocks(1, debt);
  EXPECT_EQ(eager.Resident(1), warm);
  EXPECT_EQ(lazy.Resident(1), warm - 2.0);
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
