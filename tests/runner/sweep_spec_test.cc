#include "src/runner/sweep.h"

#include <gtest/gtest.h>

namespace affsched {
namespace {

TEST(SweepSpecTest, PolicyCliNamesRoundTrip) {
  for (PolicyKind kind :
       {PolicyKind::kEquipartition, PolicyKind::kDynamic, PolicyKind::kDynAff,
        PolicyKind::kDynAffNoPri, PolicyKind::kDynAffDelay, PolicyKind::kTimeShare,
        PolicyKind::kTimeShareAff}) {
    PolicyKind parsed;
    ASSERT_TRUE(PolicyKindFromName(PolicyKindCliName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PolicyKind unused;
  EXPECT_FALSE(PolicyKindFromName("no-such-policy", &unused));
}

TEST(SweepSpecTest, PresetsParse) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("fig5", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "fig5");
  EXPECT_EQ(spec.policies.size(), 4u);
  EXPECT_EQ(spec.mixes.size(), 6u);
  EXPECT_EQ(spec.root_seed, 1000u);

  ASSERT_TRUE(ParseSweepSpec("table3", &spec, &error)) << error;
  EXPECT_EQ(spec.policies.size(), 3u);
  ASSERT_EQ(spec.mixes.size(), 1u);
  EXPECT_EQ(spec.mixes[0].number, 5);
  EXPECT_EQ(spec.root_seed, 555u);

  ASSERT_TRUE(ParseSweepSpec("smoke", &spec, &error)) << error;
  EXPECT_EQ(spec.replication.min_replications, 2u);
  EXPECT_EQ(spec.replication.max_replications, 2u);
}

TEST(SweepSpecTest, PresetWithOverrides) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("fig5;reps=2;procs=8;seed=77", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "fig5;reps=2;procs=8;seed=77");  // provenance
  EXPECT_EQ(spec.replication.min_replications, 2u);
  EXPECT_EQ(spec.replication.max_replications, 2u);
  EXPECT_EQ(spec.machine.num_processors, 8u);
  EXPECT_EQ(spec.root_seed, 77u);
  // The size caps are inclusive.
  ASSERT_TRUE(ParseSweepSpec("smoke;reps=1-1000;procs=4096", &spec, &error)) << error;
  EXPECT_EQ(spec.replication.max_replications, kMaxReplications);
  EXPECT_EQ(spec.machine.num_processors, kMaxProcessors);
}

TEST(SweepSpecTest, CustomSpecParses) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(
      ParseSweepSpec("policies=equi,dyn-aff;mixes=1,5;reps=3-5;precision=0.01", &spec, &error))
      << error;
  ASSERT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.policies[0], PolicyKind::kEquipartition);
  EXPECT_EQ(spec.policies[1], PolicyKind::kDynAff);
  ASSERT_EQ(spec.mixes.size(), 2u);
  EXPECT_EQ(spec.mixes[0].number, 1);
  EXPECT_EQ(spec.mixes[1].number, 5);
  EXPECT_EQ(spec.replication.min_replications, 3u);
  EXPECT_EQ(spec.replication.max_replications, 5u);
  EXPECT_DOUBLE_EQ(spec.replication.relative_precision, 0.01);
}

TEST(SweepSpecTest, SixtyFourBitSeedsParseExactly) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;seed=9223372036854775815", &spec, &error)) << error;
  EXPECT_EQ(spec.root_seed, 9223372036854775815ull);  // 2^63 + 7: survives parsing
}

TEST(SweepSpecTest, RejectsMalformedSpecs) {
  // Hostile values fail at parse time, with a message, instead of reaching
  // the engine: numbers span their whole token and are finite, and lists
  // hold no empty items.
  for (const char* text :
       {"", "nonsense", "policies=warp-drive", "mixes=7", "reps=0", "reps=5-3",
        "smoke;frobnicate=1", "smoke;speed=nan", "smoke;cache=nan", "smoke;speed=inf",
        "smoke;topology=numa-4x8,remote=nan", "smoke;topology=numa-4x8,llc-kb=-1",
        "smoke;seed=abc", "smoke;seed=-1", "smoke;seed=18446744073709551616", "smoke;procs=8x",
        "smoke;colors=abc", "smoke;colors=65", "smoke;policies=equi,", "smoke;mixes=1,",
        "smoke;steal=,numa", "smoke;reps=2-", "smoke;reps=1.5", "smoke;precision=nan",
        "smoke;balance-interval=nan", "smoke;balance-interval=-5", "smoke;rt=2",
        "smoke;speed=1e-300", "smoke;speed=1e300", "smoke;cache=1e-300", "smoke;cache=1e300",
        "smoke;balance-interval=1e300", "smoke;balance-interval=1000001",
        "smoke;reps=1000000000", "smoke;reps=1001", "smoke;reps=2-1001",
        "smoke;procs=1000000000", "smoke;procs=4097"}) {
    SweepSpec spec;
    std::string error;
    EXPECT_FALSE(ParseSweepSpec(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(SweepSpecTest, ObservabilityKeyParsesAndDefaultsOff) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke", &spec, &error)) << error;
  EXPECT_FALSE(spec.observability);
  for (const char* on : {"smoke;observability=1", "smoke;observability=true",
                         "smoke;observability=on"}) {
    ASSERT_TRUE(ParseSweepSpec(on, &spec, &error)) << on << ": " << error;
    EXPECT_TRUE(spec.observability) << on;
  }
  for (const char* off : {"smoke;observability=0", "smoke;observability=false",
                          "smoke;observability=off"}) {
    ASSERT_TRUE(ParseSweepSpec(off, &spec, &error)) << off << ": " << error;
    EXPECT_FALSE(spec.observability) << off;
  }
  EXPECT_FALSE(ParseSweepSpec("smoke;observability=maybe", &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SweepSpecTest, MinCellsCountsTheGrid) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke", &spec, &error)) << error;
  EXPECT_EQ(spec.MinCells(), 3u * 2u * 2u);  // policies x mixes x min reps
}

}  // namespace
}  // namespace affsched
