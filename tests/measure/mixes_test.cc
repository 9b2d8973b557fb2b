#include "src/measure/mixes.h"

#include <gtest/gtest.h>

#include "src/apps/apps.h"

namespace affsched {
namespace {

TEST(MixesTest, PaperTableTwoContents) {
  const auto mixes = PaperMixes();
  ASSERT_EQ(mixes.size(), 6u);
  // Row-by-row from Table 2.
  EXPECT_EQ(mixes[0].mva, 2u);
  EXPECT_EQ(mixes[0].matrix, 0u);
  EXPECT_EQ(mixes[0].gravity, 0u);
  EXPECT_EQ(mixes[1].mva, 1u);
  EXPECT_EQ(mixes[1].matrix, 1u);
  EXPECT_EQ(mixes[2].mva, 1u);
  EXPECT_EQ(mixes[2].gravity, 1u);
  EXPECT_EQ(mixes[3].gravity, 2u);
  EXPECT_EQ(mixes[4].matrix, 1u);
  EXPECT_EQ(mixes[4].gravity, 1u);
  EXPECT_EQ(mixes[5].mva, 1u);
  EXPECT_EQ(mixes[5].matrix, 1u);
  EXPECT_EQ(mixes[5].gravity, 1u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(mixes[i].number, static_cast<int>(i + 1));
  }
}

TEST(MixesTest, HomogeneousMixesAreOneAndFour) {
  // Table 4 compares mean response times across the jobs of mixes 1 and 4,
  // the only mixes that hold a single application.
  for (const WorkloadMix& mix : PaperMixes()) {
    const int apps = (mix.mva > 0) + (mix.matrix > 0) + (mix.gravity > 0);
    EXPECT_EQ(apps == 1, mix.number == 1 || mix.number == 4) << mix.number;
  }
}

TEST(MixesTest, ExpandProducesJobsInOrder) {
  const auto apps = DefaultProfiles();
  const WorkloadMix mix{.number = 6, .mva = 1, .matrix = 1, .gravity = 1};
  const auto jobs = mix.Expand(apps);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].name, "MVA");
  EXPECT_EQ(jobs[1].name, "MATRIX");
  EXPECT_EQ(jobs[2].name, "GRAVITY");
}

TEST(MixesTest, ExpandRepeatsCopies) {
  const auto apps = DefaultProfiles();
  const WorkloadMix mix{.number = 1, .mva = 2};
  const auto jobs = mix.Expand(apps);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "MVA");
  EXPECT_EQ(jobs[1].name, "MVA");
}

TEST(MixesTest, LabelsAreDescriptive) {
  const WorkloadMix mix{.number = 5, .matrix = 1, .gravity = 1};
  EXPECT_EQ(mix.Label(), "#5 (1 MATRIX + 1 GRAVITY)");
  EXPECT_EQ(mix.TotalJobs(), 2u);
}

}  // namespace
}  // namespace affsched
