// The rt sweep preset and its spec keys, plus the headline acceptance check:
// the static rt policies must not observe a worse worst-case reload than
// dynamic affinity on the rt preset.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/runner/runner.h"
#include "src/runner/sweep.h"

namespace affsched {
namespace {

TEST(RtSweepSpecTest, RtPresetParses) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("rt", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "rt");
  EXPECT_TRUE(spec.rt);
  EXPECT_EQ(spec.deadline_mix, "soft");
  EXPECT_EQ(spec.root_seed, 1000u);
  EXPECT_EQ(spec.machine.num_colors, 8u);
  ASSERT_EQ(spec.policies.size(), 3u);
  EXPECT_EQ(spec.policies[0], PolicyKind::kDynAff);
  EXPECT_EQ(spec.policies[1], PolicyKind::kRtStaticAffinity);
  EXPECT_EQ(spec.policies[2], PolicyKind::kRtColorIso);
  ASSERT_EQ(spec.mixes.size(), 2u);
  EXPECT_EQ(spec.mixes[0].number, 1);
  EXPECT_EQ(spec.mixes[1].number, 5);
}

TEST(RtSweepSpecTest, ColorsKeySelectsThePartitionedSubstrate) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;colors=4", &spec, &error)) << error;
  EXPECT_EQ(spec.machine.num_colors, 4u);
  // colors=0 restores the uncolored cache.
  ASSERT_TRUE(ParseSweepSpec("smoke;colors=4;colors=0", &spec, &error)) << error;
  EXPECT_EQ(spec.machine.num_colors, 0u);
  EXPECT_FALSE(ParseSweepSpec("smoke;colors=65", &spec, &error));
}

TEST(RtSweepSpecTest, RtAndDeadlineMixKeysParse) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;rt=1;deadline-mix=hard", &spec, &error)) << error;
  EXPECT_TRUE(spec.rt);
  EXPECT_EQ(spec.deadline_mix, "hard");
  ASSERT_TRUE(ParseSweepSpec("smoke;rt=on;rt=off", &spec, &error)) << error;
  EXPECT_FALSE(spec.rt);
  EXPECT_FALSE(ParseSweepSpec("smoke;rt=2", &spec, &error));
  EXPECT_FALSE(ParseSweepSpec("smoke;deadline-mix=bogus", &spec, &error));
  EXPECT_NE(error.find("soft|hard|mixed|tight"), std::string::npos);
}

TEST(RtSweepSpecTest, NonRtDocumentsCarryNoRtFields) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;reps=1;mixes=1", &spec, &error)) << error;
  SweepRunnerOptions options;
  options.jobs = 2;
  const std::string json = SweepRunner(options).Run(spec).ToJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_EQ(json.find("\"rt\""), std::string::npos);
  EXPECT_EQ(json.find("deadline"), std::string::npos);
  EXPECT_EQ(json.find("worst_reload_s"), std::string::npos);
  EXPECT_EQ(json.find("\"colors\""), std::string::npos);
}

// One full run of the rt preset backs the remaining assertions (the golden
// test already pins the exact bytes; here we check the semantics).
class RtPresetRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(ParseSweepSpec("rt", &spec, &error)) << error;
    SweepRunnerOptions options;
    options.jobs = 2;
    result_ = new SweepResult(SweepRunner(options).Run(spec));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }

  // Worst single-chunk reload any job of any replication observed under
  // (policy, mix) — the number the static plans exist to bound.
  static double WorstReload(PolicyKind policy, int mix) {
    const ExperimentResult* experiment = result_->Find(policy, mix);
    EXPECT_NE(experiment, nullptr);
    double worst = 0.0;
    for (const JobStats& stats : experiment->replicated.mean_stats) {
      worst = std::max(worst, stats.worst_reload_s);
    }
    return worst;
  }

  static SweepResult* result_;
};

SweepResult* RtPresetRunTest::result_ = nullptr;

TEST_F(RtPresetRunTest, DocumentIsSchemaV3WithRtBlock) {
  const std::string json = result_->ToJson();
  EXPECT_NE(json.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(json.find("\"colors\":8"), std::string::npos);
  EXPECT_NE(json.find("\"rt\":true"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_mix\":\"soft\""), std::string::npos);
  EXPECT_NE(json.find("\"rt\":{\"deadline_mix\":\"soft\",\"experiments\":["),
            std::string::npos);
  EXPECT_NE(json.find("\"deadline_miss_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_tardiness_s\""), std::string::npos);
  EXPECT_NE(json.find("\"worst_reload_s\""), std::string::npos);
}

TEST_F(RtPresetRunTest, SoftMixIsFeasible) {
  // The soft mix leaves 60% slack over the ideal makespan; every policy in
  // the preset meets every deadline, so the preset doubles as a regression
  // guard on deadline accounting (a spurious miss fails here).
  for (const ExperimentResult& experiment : result_->experiments) {
    for (const JobStats& stats : experiment.replicated.mean_stats) {
      EXPECT_EQ(stats.deadline_misses, 0u);
      EXPECT_DOUBLE_EQ(stats.tardiness_s, 0.0);
    }
  }
}

// The acceptance criterion of the rt subsystem: planning affinity statically
// must bound the worst-case-observed reload transient at or below what
// dynamic affinity produces, on both mixes of the preset.
TEST_F(RtPresetRunTest, StaticAffinityBoundsWorstCaseReload) {
  for (int mix : {1, 5}) {
    const double dynamic = WorstReload(PolicyKind::kDynAff, mix);
    const double rt_static = WorstReload(PolicyKind::kRtStaticAffinity, mix);
    const double color_iso = WorstReload(PolicyKind::kRtColorIso, mix);
    ASSERT_GT(dynamic, 0.0);
    EXPECT_LE(rt_static, dynamic) << "mix " << mix;
    // Color isolation shields the footprint from cross-job evictions too,
    // so it must do at least as well as span planning alone.
    EXPECT_LE(color_iso, rt_static) << "mix " << mix;
  }
}

}  // namespace
}  // namespace affsched
