#include "src/opensys/open_sweep.h"

#include <gtest/gtest.h>

#include "src/runner/sweep.h"
#include "tests/serve/json_testing.h"

namespace affsched {
namespace {

// A deliberately tiny grid so the runner tests stay fast.
OpenSweepSpec TinySpec() {
  OpenSweepSpec spec;
  std::string error;
  EXPECT_TRUE(ParseOpenSweepSpec("opensys-smoke;policies=equi,dyn-aff;rhos=0.7;count=12",
                                 &spec, &error))
      << error;
  return spec;
}

TEST(OpenSweepSpecTest, PresetsParse) {
  OpenSweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseOpenSweepSpec("opensys", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "opensys");
  EXPECT_EQ(spec.policies.size(), 3u);
  EXPECT_EQ(spec.arrivals.size(), 2u);
  EXPECT_EQ(spec.rhos.size(), 6u);
  EXPECT_EQ(spec.Cells(), 3u * 2u * 6u);

  ASSERT_TRUE(ParseOpenSweepSpec("opensys-smoke", &spec, &error)) << error;
  EXPECT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.arrivals.size(), 1u);
}

TEST(OpenSweepSpecTest, OverridesApply) {
  OpenSweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseOpenSweepSpec(
                  "opensys;policies=dyn-aff;rhos=0.5,0.9;arrivals=onoff;count=20;reps=2;"
                  "seed=99;procs=8;mpl-cap=6;max-queue=10;warmup=0.1;burst=8",
                  &spec, &error))
      << error;
  EXPECT_EQ(spec.policies.size(), 1u);
  EXPECT_EQ(spec.rhos.size(), 2u);
  ASSERT_EQ(spec.arrivals.size(), 1u);
  EXPECT_EQ(spec.arrivals[0], ArrivalKind::kOnOff);
  EXPECT_EQ(spec.jobs_per_cell, 20u);
  EXPECT_EQ(spec.replications, 2u);
  EXPECT_EQ(spec.root_seed, 99u);
  EXPECT_EQ(spec.machine.num_processors, 8u);
  EXPECT_EQ(spec.mpl_cap, 6u);
  EXPECT_EQ(spec.max_queue, 10);
  EXPECT_DOUBLE_EQ(spec.open.warmup_fraction, 0.1);
  EXPECT_DOUBLE_EQ(spec.onoff_burst_factor, 8.0);
  ASSERT_TRUE(ParseOpenSweepSpec("opensys;warmup=mser", &spec, &error)) << error;
  EXPECT_EQ(spec.open.warmup_rule, WarmupRule::kMser);
  // The size caps are inclusive.
  ASSERT_TRUE(ParseOpenSweepSpec("opensys-smoke;reps=1000;count=1000000", &spec, &error))
      << error;
  EXPECT_EQ(spec.replications, kMaxReplications);
  EXPECT_EQ(spec.jobs_per_cell, kMaxArrivalsPerCell);
}

TEST(OpenSweepSpecTest, TopologyKeyParsesAndValidates) {
  OpenSweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseOpenSweepSpec("opensys-smoke;topology=cmp-2x10", &spec, &error)) << error;
  EXPECT_EQ(spec.machine.topology.name, "cmp-2x10");
  EXPECT_FALSE(spec.machine.topology.IsFlat());
  EXPECT_FALSE(ParseOpenSweepSpec("opensys-smoke;topology=nosuch", &spec, &error));
  // Machine-level validation runs at the end of the parse.
  EXPECT_FALSE(ParseOpenSweepSpec("opensys-smoke;topology=cmp-2x10,llc-factor=0", &spec, &error));
}

TEST(OpenSweepSpecTest, MalformedSpecsRejected) {
  for (const char* text :
       {"", "nosuch", "opensys;bogus=1", "opensys;rhos=0", "opensys;rhos=2.0",
        "opensys;arrivals=weird", "opensys;warmup=1.5", "opensys;policies=",
        "opensys-smoke;rhos=nan", "opensys-smoke;rhos=0.0004",
        "opensys-smoke;burst=nan;arrivals=onoff",
        "opensys-smoke;rhos=0.5,", "opensys-smoke;policies=equi,", "opensys-smoke;speed=nan",
        "opensys-smoke;cache=nan", "opensys-smoke;topology=numa-4x8,remote=nan",
        "opensys-smoke;seed=abc", "opensys-smoke;procs=8x", "opensys-smoke;colors=abc",
        "opensys-smoke;count=12x", "opensys-smoke;reps=0", "opensys-smoke;mpl-cap=-1",
        "opensys-smoke;max-queue=1.5", "opensys-smoke;max-queue=4",
        "opensys-smoke;mpl-cap=6;max-queue=4;mpl-cap=0", "opensys-smoke;warmup=nan",
        "opensys-smoke;burst=1", "opensys-smoke;burst=1e300;arrivals=onoff",
        "opensys-smoke;burst=1001",
        "opensys-smoke;speed=1e-300", "opensys-smoke;cache=1e300",
        "opensys-smoke;count=1000000000", "opensys-smoke;count=1000001",
        "opensys-smoke;reps=1001", "opensys-smoke;procs=1000000000"}) {
    OpenSweepSpec spec;
    std::string error;
    EXPECT_FALSE(ParseOpenSweepSpec(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(OpenSweepSpecTest, ArrivalKindNamesRoundTrip) {
  ArrivalKind kind;
  ASSERT_TRUE(ArrivalKindFromName("poisson", &kind));
  EXPECT_EQ(ArrivalKindName(kind), "poisson");
  ASSERT_TRUE(ArrivalKindFromName("onoff", &kind));
  EXPECT_EQ(ArrivalKindName(kind), "onoff");
  EXPECT_FALSE(ArrivalKindFromName("", &kind));
}

TEST(OpenSweepSpecTest, RhoPermilleIsExact) {
  EXPECT_EQ(RhoPermille(0.7), 700);
  EXPECT_EQ(RhoPermille(0.95), 950);
  EXPECT_EQ(RhoPermille(0.3), 300);
}

TEST(OpenSweepSpecTest, MeanDemandIsDeterministicAndPositive) {
  const OpenSweepSpec spec = TinySpec();
  const double a = MeanServiceDemandSeconds(spec.apps, spec.app_weights);
  const double b = MeanServiceDemandSeconds(spec.apps, spec.app_weights);
  EXPECT_GT(a, 0.0);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(OpenSweepRunnerTest, JsonByteIdenticalAtAnyWorkerCount) {
  const OpenSweepSpec spec = TinySpec();
  OpenSweepRunnerOptions serial;
  serial.jobs = 1;
  OpenSweepRunnerOptions parallel;
  parallel.jobs = 4;
  const std::string a = OpenSweepRunner(serial).Run(spec).ToJson();
  const std::string b = OpenSweepRunner(parallel).Run(spec).ToJson();
  EXPECT_EQ(a, b);
}

TEST(OpenSweepRunnerTest, EmitsSchemaV2OpenMode) {
  const OpenSweepResult result = OpenSweepRunner().Run(TinySpec());
  const std::string json = result.ToJson();
  EXPECT_TRUE(ParsesAsJson(json));
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"open\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_sojourn_s\""), std::string::npos);
  EXPECT_NE(json.find("\"littles_law\""), std::string::npos);
}

TEST(OpenSweepRunnerTest, LittlesLawHoldsInEveryCell) {
  const OpenSweepResult result = OpenSweepRunner().Run(TinySpec());
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_TRUE(result.AllLittlesLawOk());
  for (const OpenCellResult& cell : result.cells) {
    EXPECT_LT(cell.result.littles.relative_error, 0.05);
    EXPECT_EQ(cell.result.completed, cell.result.admitted);
    EXPECT_GT(cell.result.mean_sojourn_s, 0.0);
  }
}

TEST(OpenSweepRunnerTest, CommonRandomNumbersAcrossPolicies) {
  // Policies share the cell seed, so both see the identical arrival stream.
  const OpenSweepResult result = OpenSweepRunner().Run(TinySpec());
  // One arrival process, one rho, one replication: the cells are the policies.
  ASSERT_EQ(result.cells.size(), 2u);
  const OpenCellResult& equi = result.cells[0];
  const OpenCellResult& dyn_aff = result.cells[1];
  ASSERT_EQ(equi.policy, PolicyKind::kEquipartition);
  ASSERT_EQ(dyn_aff.policy, PolicyKind::kDynAff);
  EXPECT_EQ(equi.seed, dyn_aff.seed);
  ASSERT_EQ(equi.result.jobs.size(), dyn_aff.result.jobs.size());
  for (size_t i = 0; i < equi.result.jobs.size(); ++i) {
    EXPECT_EQ(equi.result.jobs[i].arrival, dyn_aff.result.jobs[i].arrival);
    EXPECT_EQ(equi.result.jobs[i].app_index, dyn_aff.result.jobs[i].app_index);
  }
}

}  // namespace
}  // namespace affsched
