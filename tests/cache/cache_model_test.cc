// Tests for the CacheModel contract: both implementations must satisfy the
// same behaviour (buildup, warmth, ejection, turnover), and the exact model
// must agree with the analytic one on its magnitudes.

#include "src/cache/cache_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/cache/exact_model.h"
#include "src/cache/footprint.h"

namespace affsched {
namespace {

constexpr double kCapacityBlocks = 4096.0;  // 64 KB of 16-byte lines

WorkingSetParams TestWorkingSet() {
  WorkingSetParams ws;
  ws.blocks = 1000.0;
  ws.buildup_tau_s = 0.05;
  ws.steady_miss_per_s = 2000.0;
  return ws;
}

std::unique_ptr<CacheModel> MakeModel(bool exact) {
  if (exact) {
    return std::make_unique<ExactCacheModel>(CacheGeometry{}, /*seed=*/42);
  }
  return std::make_unique<FootprintCache>(kCapacityBlocks, /*ways=*/2);
}

class CacheModelContractTest : public ::testing::TestWithParam<bool> {};

TEST_P(CacheModelContractTest, FootprintBuildsUpTowardWorkingSet) {
  auto model = MakeModel(GetParam());
  const WorkingSetParams ws = TestWorkingSet();
  double prev = 0.0;
  for (int i = 0; i < 10; ++i) {
    model->RunChunk(1, ws, 0.02);
    const double now = model->Resident(1);
    EXPECT_GE(now, prev - 1.0);
    prev = now;
  }
  // After 0.2s (4 tau) the footprint should be close to its cap.
  EXPECT_GT(model->Resident(1), 0.8 * model->MaxResident(ws.blocks));
  EXPECT_LE(model->Resident(1), model->capacity() + 1e-9);
  EXPECT_GE(model->Occupied(), model->Resident(1));
}

TEST_P(CacheModelContractTest, WarmResumeCostsFewerReloadMisses) {
  auto model = MakeModel(GetParam());
  const WorkingSetParams ws = TestWorkingSet();
  const CacheChunkResult cold = model->RunChunk(1, ws, 0.1);
  const CacheChunkResult warm = model->RunChunk(1, ws, 0.1);
  EXPECT_LT(warm.reload_misses, 0.5 * cold.reload_misses);
}

TEST_P(CacheModelContractTest, FlushForcesFullReload) {
  auto model = MakeModel(GetParam());
  const WorkingSetParams ws = TestWorkingSet();
  model->RunChunk(1, ws, 0.2);
  model->Flush();
  EXPECT_DOUBLE_EQ(model->Resident(1), 0.0);
  EXPECT_DOUBLE_EQ(model->Occupied(), 0.0);
  const CacheChunkResult after = model->RunChunk(1, ws, 0.2);
  EXPECT_GT(after.reload_misses, 0.5 * model->MaxResident(ws.blocks));
}

TEST_P(CacheModelContractTest, EjectBlocksRemovesRequestedAmount) {
  auto model = MakeModel(GetParam());
  const WorkingSetParams ws = TestWorkingSet();
  model->RunChunk(1, ws, 0.2);
  const double before = model->Resident(1);
  ASSERT_GT(before, 200.0);
  model->EjectBlocks(1, 100.0);
  EXPECT_NEAR(model->Resident(1), before - 100.0, 1.0);
}

TEST_P(CacheModelContractTest, ReplaceOwnerDataDropsDeadData) {
  auto model = MakeModel(GetParam());
  WorkingSetParams ws = TestWorkingSet();
  ws.steady_miss_per_s = 0.0;  // footprint is working-set lines only
  model->RunChunk(1, ws, 0.3);
  const double before = model->Resident(1);
  model->ReplaceOwnerData(1, 0.25);
  EXPECT_NEAR(model->Resident(1), before * 0.25, 0.1 * before);
}

TEST_P(CacheModelContractTest, MaxResidentMatchesPoissonCap) {
  auto model = MakeModel(GetParam());
  EXPECT_DOUBLE_EQ(model->MaxResident(0.0), 0.0);
  EXPECT_DOUBLE_EQ(model->MaxResident(2000.0),
                   ExpectedMaxResident(model->capacity(), 2, 2000.0));
  EXPECT_LT(model->MaxResident(2000.0), 2000.0);
}

INSTANTIATE_TEST_SUITE_P(BothModels, CacheModelContractTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Exact" : "Footprint";
                         });

// The EjectBlocks return contract, on every substrate: the machine adds the
// returned amount to bus traffic instead of asking Resident first, so each
// substrate must report exactly min(blocks, resident). The hierarchical
// machine's version (the LLC copy loses the same amount) is
// HierarchicalCacheTest.InvalidateRemovesMinOfRequestAndResident.
enum class Substrate { kFootprint, kExact, kPartitioned };

class EjectBlocksContractTest : public ::testing::TestWithParam<Substrate> {
 protected:
  std::unique_ptr<CacheModel> MakeSubstrate() {
    switch (GetParam()) {
      case Substrate::kFootprint:
        return MakeModel(/*exact=*/false);
      case Substrate::kExact:
        return MakeModel(/*exact=*/true);
      case Substrate::kPartitioned: {
        // Reserved as a colored machine reserves every worker.
        auto colored = std::make_unique<FootprintCache>(kCapacityBlocks, 2, /*colors=*/8);
        colored->ReserveColors(1, kAllColors);
        return colored;
      }
    }
    return nullptr;
  }

  std::unique_ptr<CacheModel> model_ = MakeSubstrate();
};

TEST_P(EjectBlocksContractTest, ReturnsMinOfRequestAndResident) {
  CacheModel& model = *model_;
  model.RunChunk(1, TestWorkingSet(), 0.2);
  const double before = model.Resident(1);
  ASSERT_GT(before, 300.0);

  // Less than resident: all of it is removed.
  EXPECT_DOUBLE_EQ(model.EjectBlocks(1, 100.0), 100.0);
  const double after = model.Resident(1);
  EXPECT_NEAR(after, before - 100.0, 1.0);

  // More than resident: clamped to what was there, and nothing is left.
  EXPECT_DOUBLE_EQ(model.EjectBlocks(1, 1e9), after);
  EXPECT_DOUBLE_EQ(model.Resident(1), 0.0);

  // An owner with nothing resident loses nothing.
  EXPECT_DOUBLE_EQ(model.EjectBlocks(1, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(model.EjectBlocks(7, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(model.EjectBlocks(1, 0.0), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, EjectBlocksContractTest,
                         ::testing::Values(Substrate::kFootprint, Substrate::kExact,
                                           Substrate::kPartitioned),
                         [](const ::testing::TestParamInfo<Substrate>& param_info) {
                           switch (param_info.param) {
                             case Substrate::kFootprint:
                               return "Footprint";
                             case Substrate::kExact:
                               return "Exact";
                             case Substrate::kPartitioned:
                               return "Partitioned";
                           }
                           return "Unknown";
                         });

TEST(ExpectedMaxResidentTest, SmallWorkingSetsFitEntirely) {
  EXPECT_NEAR(ExpectedMaxResident(4096.0, 2, 100.0), 100.0, 2.0);
}

TEST(ExpectedMaxResidentTest, CapIsBoundedByCapacity) {
  EXPECT_LE(ExpectedMaxResident(4096.0, 2, 1e9), 4096.0 + 1e-6);
}

TEST(TouchFractionTest, MemoReturnsTheFunctionsValueForEveryInputChange) {
  TouchFractionMemo memo;
  EXPECT_EQ(memo.Get(0.002, 0.05), 1.0 - std::exp(-0.002 / 0.05));
  EXPECT_EQ(memo.Get(0.002, 0.05), TouchFraction(0.002, 0.05));
  EXPECT_EQ(memo.Get(0.0015, 0.05), TouchFraction(0.0015, 0.05));
  EXPECT_EQ(memo.Get(0.0015, 0.01), TouchFraction(0.0015, 0.01));
  EXPECT_EQ(memo.Get(0.0015, 0.0), 1.0);
}

TEST(ExpectedMaxResidentTest, MemoReturnsTheFunctionsValueForEveryInputChange) {
  MaxResidentMemo memo;
  EXPECT_EQ(memo.Get(4096.0, 2, 1000.0), ExpectedMaxResident(4096.0, 2, 1000.0));
  EXPECT_EQ(memo.Get(4096.0, 2, 1000.0), ExpectedMaxResident(4096.0, 2, 1000.0));
  EXPECT_EQ(memo.Get(4096.0, 2, 3000.0), ExpectedMaxResident(4096.0, 2, 3000.0));
  EXPECT_EQ(memo.Get(2048.0, 2, 3000.0), ExpectedMaxResident(2048.0, 2, 3000.0));
  EXPECT_EQ(memo.Get(2048.0, 4, 3000.0), ExpectedMaxResident(2048.0, 4, 3000.0));
  EXPECT_EQ(memo.Get(2048.0, 4, 0.0), 0.0);
}

TEST(ExactCacheModelTest, SteadyMissesExertEvictionPressure) {
  ExactCacheModel model(CacheGeometry{}, /*seed=*/7);
  WorkingSetParams quiet = TestWorkingSet();
  quiet.steady_miss_per_s = 0.0;
  model.RunChunk(1, quiet, 0.3);
  const double warm = model.Resident(1);
  WorkingSetParams streamer;
  streamer.blocks = 3000.0;
  streamer.buildup_tau_s = 0.01;
  streamer.steady_miss_per_s = 50000.0;
  model.RunChunk(2, streamer, 0.5);
  EXPECT_LT(model.Resident(1), warm);
}

TEST(ExactCacheModelTest, DeterministicAcrossInstances) {
  ExactCacheModel a(CacheGeometry{}, /*seed=*/11);
  ExactCacheModel b(CacheGeometry{}, /*seed=*/11);
  const WorkingSetParams ws = TestWorkingSet();
  for (int i = 0; i < 5; ++i) {
    const CacheChunkResult ra = a.RunChunk(3, ws, 0.017);
    const CacheChunkResult rb = b.RunChunk(3, ws, 0.017);
    EXPECT_DOUBLE_EQ(ra.reload_misses, rb.reload_misses);
    EXPECT_DOUBLE_EQ(ra.steady_misses, rb.steady_misses);
  }
  EXPECT_DOUBLE_EQ(a.Resident(3), b.Resident(3));
}

TEST(CacheModelTest, SubstratesAgreeOnColdBuildupMagnitude) {
  // The analytic model integrates what the exact model simulates; a cold
  // 100 ms chunk (2 tau) should produce reload-miss counts within ~15% of
  // each other.
  WorkingSetParams ws = TestWorkingSet();
  ws.steady_miss_per_s = 0.0;
  const double ra = MakeModel(/*exact=*/false)->RunChunk(1, ws, 0.1).reload_misses;
  const double re = MakeModel(/*exact=*/true)->RunChunk(1, ws, 0.1).reload_misses;
  EXPECT_NEAR(ra, re, 0.15 * ra);
}

}  // namespace
}  // namespace affsched
