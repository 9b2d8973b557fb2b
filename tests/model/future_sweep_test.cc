#include "src/model/future_sweep.h"

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/runner/runner.h"

namespace affsched {
namespace {

// Two replications of `mix` on the 8-processor machine with the small apps,
// under Equipartition and the default future-sweep policies.
SweepResult RunSmallGrid(const WorkloadMix& mix) {
  SweepSpec spec;
  spec.machine.num_processors = 8;
  spec.apps = {MakeSmallMvaProfile(), MakeSmallMatrixProfile(), MakeSmallGravityProfile()};
  spec.policies = {PolicyKind::kEquipartition, PolicyKind::kDynamic, PolicyKind::kDynAff,
                   PolicyKind::kDynAffDelay};
  spec.mixes = {mix};
  spec.replication.min_replications = 2;
  spec.replication.max_replications = 2;
  spec.root_seed = 3;
  return SweepRunner().Run(spec);
}

FutureSweepResult SmallSweep(const WorkloadMix& mix, const FutureSweepOptions& options) {
  return FutureSweepFromRuns(RunSmallGrid(mix), mix.number, PaperPenaltyTable(), options);
}

FutureSweepOptions FastOptions() {
  FutureSweepOptions options;
  options.products = {1, 64, 4096};
  return options;
}

TEST(PenaltyTableTest, PaperValuesAtQ400) {
  const PenaltyTable table = PaperPenaltyTable();
  EXPECT_DOUBLE_EQ(table.pna_us.at("MATRIX"), 1679.0);
  EXPECT_DOUBLE_EQ(table.pna_us.at("MVA"), 2330.0);
  EXPECT_DOUBLE_EQ(table.pna_us.at("GRAVITY"), 2349.0);
  EXPECT_DOUBLE_EQ(table.pa_us.at("MATRIX"), 737.0);
  EXPECT_DOUBLE_EQ(table.pa_us.at("MVA"), 1061.0);
  EXPECT_DOUBLE_EQ(table.pa_us.at("GRAVITY"), 1719.0);
}

TEST(FutureSweepTest, ProducesCurvePerPolicyPerJob) {
  const WorkloadMix mix{.number = 5, .matrix = 1, .gravity = 1};
  const FutureSweepResult result = SmallSweep(mix, FastOptions());
  // 3 policies x 2 jobs.
  EXPECT_EQ(result.curves.size(), 6u);
  for (const FutureCurve& curve : result.curves) {
    EXPECT_EQ(curve.relative_rt.size(), result.products.size());
    for (double r : curve.relative_rt) {
      EXPECT_GT(r, 0.0);
      EXPECT_LT(r, 10.0);
    }
  }
}

TEST(FutureSweepTest, CurrentTechnologyRatiosNearOrBelowOne) {
  // At product = 1 (today's machine) the dynamic policies beat or match
  // Equipartition — Figure 5's result.
  const WorkloadMix mix{.number = 2, .mva = 1, .matrix = 1};
  const FutureSweepResult result = SmallSweep(mix, FastOptions());
  for (const FutureCurve& curve : result.curves) {
    EXPECT_LT(curve.relative_rt.front(), 1.15) << curve.app;
  }
}

TEST(FutureSweepTest, ObliviousDynamicDegradesFasterThanAffinity) {
  // Figures 8-13: Dynamic's curve rises above Dyn-Aff's as the speed x cache
  // product grows, because Dynamic's %affinity is low.
  const WorkloadMix mix{.number = 1, .mva = 2};
  const FutureSweepResult result = SmallSweep(mix, FastOptions());
  double dynamic_last = 0.0;
  double dynaff_last = 0.0;
  for (const FutureCurve& curve : result.curves) {
    if (curve.job_index != 0) {
      continue;
    }
    if (curve.policy == PolicyKind::kDynamic) {
      dynamic_last = curve.relative_rt.back();
    }
    if (curve.policy == PolicyKind::kDynAff) {
      dynaff_last = curve.relative_rt.back();
    }
  }
  ASSERT_GT(dynamic_last, 0.0);
  ASSERT_GT(dynaff_last, 0.0);
  EXPECT_LE(dynaff_last, dynamic_last * 1.05);
}

TEST(FutureSweepTest, ProductsEchoedInResult) {
  const WorkloadMix mix{.number = 4, .gravity = 2};
  FutureSweepOptions options = FastOptions();
  options.products = {1, 16};
  const FutureSweepResult result = SmallSweep(mix, options);
  EXPECT_EQ(result.products, (std::vector<double>{1, 16}));
}

}  // namespace
}  // namespace affsched
