// Golden-trajectory regression tests: pinned sweep JSON, byte for byte.
//
// Each case parses the exact spec string the committed golden was generated
// with, runs the full sweep through SweepRunner, and requires ToJson() to
// match the file byte-identically. Two root seeds per preset guard against a
// change that happens to preserve one trajectory. Any intentional behaviour
// change must regenerate the goldens (simctl --sweep=<spec> --out=<file>)
// and justify the diff in review.

#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "src/runner/runner.h"
#include "src/runner/sweep.h"

#ifndef AFF_GOLDEN_DIR
#error "AFF_GOLDEN_DIR must point at tests/golden"
#endif

namespace affsched {
namespace {

std::string ReadGolden(const std::string& filename) {
  const std::string path = std::string(AFF_GOLDEN_DIR) + "/" + filename;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Reports the first differing byte with context, so a mismatch shows where
// the trajectories diverged instead of dumping two 10 kB strings.
void ExpectBytesIdentical(const std::string& actual, const std::string& golden) {
  if (actual == golden) {
    SUCCEED();
    return;
  }
  size_t i = 0;
  while (i < actual.size() && i < golden.size() && actual[i] == golden[i]) {
    ++i;
  }
  const size_t begin = i > 60 ? i - 60 : 0;
  ADD_FAILURE() << "sweep JSON diverges from golden at byte " << i
                << "\n  golden: ..." << golden.substr(begin, 120)
                << "\n  actual: ..." << actual.substr(begin, 120);
}

void RunGoldenCase(const std::string& spec_text, const std::string& filename) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec(spec_text, &spec, &error)) << error;
  SweepRunnerOptions options;
  options.jobs = 2;  // byte-identical at any worker count; exercise >1
  const SweepResult result = SweepRunner(options).Run(spec);
  // Goldens are produced by WriteJsonFile, which ends the file with "\n".
  ExpectBytesIdentical(result.ToJson() + "\n", ReadGolden(filename));
}

TEST(GoldenTrajectoryTest, SmokeSeed1000) { RunGoldenCase("smoke", "sweep_smoke_seed1000.json"); }

TEST(GoldenTrajectoryTest, SmokeSeed7777) {
  RunGoldenCase("smoke;seed=7777", "sweep_smoke_seed7777.json");
}

TEST(GoldenTrajectoryTest, Fig5Seed1000) {
  RunGoldenCase("fig5;mixes=2,5;reps=1", "sweep_fig5_seed1000.json");
}

TEST(GoldenTrajectoryTest, Fig5Seed7777) {
  RunGoldenCase("fig5;mixes=2,5;reps=1;seed=7777", "sweep_fig5_seed7777.json");
}

// A quarter-size cache: owners crowd each cache until the occupancy
// squeeze (the `occupied_ > capacity_` branch of FootprintCache::RunChunk)
// fires, which no other closed golden reaches. The squeeze reads the sum of
// the other owners' footprints, so this pins the order that sum is taken in.
TEST(GoldenTrajectoryTest, SmokeCacheQuarter) {
  RunGoldenCase("smoke;reps=1;cache=0.25", "sweep_smoke_cache0p25.json");
}

// The topology subsystem is a strict superset: selecting the symmetry-flat
// topology explicitly must reproduce the flat-machine trajectory byte for
// byte against the pre-topology golden.
TEST(GoldenTrajectoryTest, SymmetryFlatTopologyMatchesFlatGolden) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;topology=symmetry-flat", &spec, &error)) << error;
  // Overrides rewrite spec.name to the full provenance string; restore the
  // preset name so the JSON header matches the flat golden too.
  spec.name = "smoke";
  SweepRunnerOptions options;
  options.jobs = 2;
  const SweepResult result = SweepRunner(options).Run(spec);
  ExpectBytesIdentical(result.ToJson() + "\n", ReadGolden("sweep_smoke_seed1000.json"));
}

// And a hierarchical trajectory of its own, pinning the tiered cache model,
// the per-tier accounting and the topology JSON blocks.
TEST(GoldenTrajectoryTest, CmpTopologySmoke) {
  RunGoldenCase("smoke;topology=cmp-2x10", "sweep_smoke_cmp2x10.json");
}

// The MQMS preset: Equipartition plus every steal radius of the multi-queue
// family on a NUMA machine with 50 ms balance ticks. Pins the per-queue
// dispatch trajectory, the steal/balance counters and their JSON blocks.
TEST(GoldenTrajectoryTest, MqSeed1000) { RunGoldenCase("mq", "sweep_mq_seed1000.json"); }

// Worker-count invariance for the mq preset: five workers must reproduce the
// two-worker golden byte for byte (cell seeds come from DeriveCellSeed, so
// scheduling order cannot leak into the document).
TEST(GoldenTrajectoryTest, MqSeed1000AtFiveWorkers) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("mq", &spec, &error)) << error;
  SweepRunnerOptions options;
  options.jobs = 5;
  const SweepResult result = SweepRunner(options).Run(spec);
  ExpectBytesIdentical(result.ToJson() + "\n", ReadGolden("sweep_mq_seed1000.json"));
}

// The real-time preset: dyn-aff vs the static rt policies on the 8-color
// partitioned machine with the soft deadline mix. Pins the partitioned
// reload trajectory, the deadline/tardiness accounting and the schema-v3
// "rt" block.
TEST(GoldenTrajectoryTest, RtSeed1000) { RunGoldenCase("rt", "sweep_rt_seed1000.json"); }

// Worker-count invariance for the rt preset: the color reservations and the
// deadline stamp are derived from the spec, never from execution order.
TEST(GoldenTrajectoryTest, RtSeed1000AtFiveWorkers) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("rt", &spec, &error)) << error;
  SweepRunnerOptions options;
  options.jobs = 5;
  const SweepResult result = SweepRunner(options).Run(spec);
  ExpectBytesIdentical(result.ToJson() + "\n", ReadGolden("sweep_rt_seed1000.json"));
}

}  // namespace
}  // namespace affsched
