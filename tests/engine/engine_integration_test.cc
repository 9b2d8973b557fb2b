// Integration tests: the real (small) applications under every policy.

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/engine/engine.h"
#include "src/sched/factory.h"

namespace affsched {
namespace {

MachineConfig SmallMachine() {
  MachineConfig config;
  config.num_processors = 8;
  return config;
}

class AllPoliciesTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(AllPoliciesTest, MixedSmallWorkloadCompletes) {
  Engine engine(SmallMachine(), MakePolicy(GetParam()), 99);
  const JobId mva = engine.SubmitJob(MakeSmallMvaProfile());
  const JobId mat = engine.SubmitJob(MakeSmallMatrixProfile());
  const JobId grav = engine.SubmitJob(MakeSmallGravityProfile());
  const SimTime end = engine.Run();
  EXPECT_GT(end, 0);
  for (JobId id : {mva, mat, grav}) {
    const JobStats& s = engine.job_stats(id);
    EXPECT_GE(s.completion, 0) << PolicyKindName(GetParam());
    EXPECT_GT(s.useful_work_s, 0.0);
    EXPECT_GT(s.reallocations, 0u);
    EXPECT_LE(s.affinity_dispatches, s.reallocations);
    EXPECT_GT(s.AverageAllocation(), 0.0);
  }
}

TEST_P(AllPoliciesTest, WorkConservedAcrossPolicies) {
  // Useful work executed must equal the graph's total work regardless of the
  // policy that scheduled it.
  Engine engine(SmallMachine(), MakePolicy(GetParam()), 1234);
  const JobId id = engine.SubmitJob(MakeSmallMvaProfile());
  engine.Run();
  // Total work of the small MVA at seed split: compare against a direct
  // rebuild with the same job RNG is awkward, so check the invariant loosely:
  // 36 nodes x 20 ms +/- jitter.
  EXPECT_NEAR(engine.job_stats(id).useful_work_s, 36 * 0.020, 36 * 0.020 * 0.25);
}

TEST_P(AllPoliciesTest, AccountingIdentityHolds) {
  Engine engine(SmallMachine(), MakePolicy(GetParam()), 7);
  const JobId a = engine.SubmitJob(MakeSmallGravityProfile());
  const JobId b = engine.SubmitJob(MakeSmallMatrixProfile());
  engine.Run();
  for (JobId id : {a, b}) {
    const JobStats& s = engine.job_stats(id);
    const double accounted =
        s.useful_work_s + s.reload_stall_s + s.steady_stall_s + s.switch_s + s.waste_s;
    EXPECT_NEAR(s.alloc_integral_s, accounted, 0.02 * accounted + 1e-3)
        << PolicyKindName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllPoliciesTest,
    ::testing::Values(PolicyKind::kEquipartition, PolicyKind::kDynamic, PolicyKind::kDynAff,
                      PolicyKind::kDynAffNoPri, PolicyKind::kDynAffDelay, PolicyKind::kTimeShare,
                      PolicyKind::kTimeShareAff),
    [](const ::testing::TestParamInfo<PolicyKind>& param_info) {
      std::string name = PolicyKindName(param_info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(EngineIntegrationTest, AffinityPoliciesRaiseAffinityFraction) {
  // Table 3's key observation: Dyn-Aff dispatches tasks to their previous
  // processors far more often than oblivious Dynamic.
  // Two barrier-heavy jobs on a small machine force processors to bounce
  // between jobs, which is where affinity placement matters.
  GravityParams params;
  params.timesteps = 4;
  params.sequential_work = Milliseconds(10);
  params.phase_threads = {8, 4, 4, 2};
  params.phase_work = {Milliseconds(400), Milliseconds(120), Milliseconds(100), Milliseconds(50)};
  params.phase_cv = {0.2, 0.1, 0.1, 0.45};
  MachineConfig machine;
  machine.num_processors = 4;
  auto affinity_of = [&](PolicyKind kind) {
    Engine engine(machine, MakePolicy(kind), 31);
    engine.SubmitJob(MakeGravityProfile(params));
    engine.SubmitJob(MakeGravityProfile(params));
    engine.Run();
    uint64_t realloc = 0;
    uint64_t affine = 0;
    for (JobId id = 0; id < engine.job_count(); ++id) {
      realloc += engine.job_stats(id).reallocations;
      affine += engine.job_stats(id).affinity_dispatches;
    }
    return static_cast<double>(affine) / static_cast<double>(realloc);
  };
  EXPECT_GT(affinity_of(PolicyKind::kDynAff), affinity_of(PolicyKind::kDynamic));
}

TEST(EngineIntegrationTest, YieldDelayReducesReallocations) {
  auto reallocs_of = [](PolicyKind kind) {
    Engine engine(SmallMachine(), MakePolicy(kind), 13);
    engine.SubmitJob(MakeSmallGravityProfile());
    engine.SubmitJob(MakeSmallGravityProfile());
    engine.Run();
    uint64_t total = 0;
    for (JobId id = 0; id < engine.job_count(); ++id) {
      total += engine.job_stats(id).reallocations;
    }
    return total;
  };
  EXPECT_LT(reallocs_of(PolicyKind::kDynAffDelay), reallocs_of(PolicyKind::kDynAff));
}

TEST(EngineIntegrationTest, EquipartitionMinimisesReallocations) {
  auto reallocs_of = [](PolicyKind kind) {
    Engine engine(SmallMachine(), MakePolicy(kind), 17);
    engine.SubmitJob(MakeSmallGravityProfile());
    engine.SubmitJob(MakeSmallMatrixProfile());
    engine.Run();
    uint64_t total = 0;
    for (JobId id = 0; id < engine.job_count(); ++id) {
      total += engine.job_stats(id).reallocations;
    }
    return total;
  };
  const uint64_t equi = reallocs_of(PolicyKind::kEquipartition);
  const uint64_t dynamic = reallocs_of(PolicyKind::kDynamic);
  EXPECT_LT(equi, dynamic);
}

TEST(EngineIntegrationTest, TimeShareForcesInvoluntarySwitches) {
  // Under quantum rotation with two competing jobs, reallocations abound even
  // for a job that never yields voluntarily.
  Engine engine(SmallMachine(), MakePolicy(PolicyKind::kTimeShare), 23);
  const JobId a = engine.SubmitJob(MakeSmallMatrixProfile());
  engine.SubmitJob(MakeSmallMatrixProfile());
  engine.Run();
  EXPECT_GT(engine.job_stats(a).reallocations, 10u);
}

}  // namespace
}  // namespace affsched
