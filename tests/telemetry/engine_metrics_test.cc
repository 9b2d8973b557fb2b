// End-to-end check of the engine's metric instrumentation: counters must
// reconcile exactly with the JobStats accounting that the paper's
// response-time decomposition is built on, with or without cache behaviour,
// under both a static and an affinity policy.

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/apps/apps.h"
#include "src/engine/engine.h"
#include "src/measure/report.h"
#include "src/sched/factory.h"
#include "src/sched/metered.h"
#include "src/telemetry/metrics.h"

namespace affsched {
namespace {

class EngineMetricsTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(EngineMetricsTest, TotalsReconcileWithJobStats) {
  MachineConfig machine;
  machine.num_processors = 8;
  MetricsRegistry registry;
  Engine engine(machine, MakePolicy(GetParam()), 42);
  engine.SetMetrics(&registry);
  engine.SubmitJob(MakeSmallMvaProfile());
  engine.SubmitJob(MakeSmallGravityProfile());
  engine.Run();

  const MetricsReconciliation rec = ReconcileEngineMetrics(engine, registry);
  EXPECT_TRUE(rec.ok) << rec.report;

  // Per-job reallocation counters sum to the global dispatch counter.
  double per_job = 0.0;
  for (JobId id = 0; id < engine.job_count(); ++id) {
    const std::string name =
        "engine.job." + engine.job_name(id) + "#" + std::to_string(id) + ".reallocations";
    const Counter* c = registry.FindCounter(name);
    ASSERT_NE(c, nullptr) << name;
    per_job += c->value();
  }
  EXPECT_EQ(per_job, registry.FindCounter("engine.dispatches")->value());

  // Derived %affinity matches the JobStats-derived fraction exactly.
  double affine = 0.0;
  double dispatches = 0.0;
  for (JobId id = 0; id < engine.job_count(); ++id) {
    affine += static_cast<double>(engine.job_stats(id).affinity_dispatches);
    dispatches += static_cast<double>(engine.job_stats(id).reallocations);
  }
  EXPECT_EQ(registry.FindCounter("engine.dispatches_affine")->value(), affine);
  EXPECT_EQ(registry.FindCounter("engine.dispatches")->value(), dispatches);

  // The active-jobs gauge returned to zero when the run drained.
  const Gauge* active = registry.FindGauge("engine.active_jobs");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, EngineMetricsTest,
                         ::testing::Values(PolicyKind::kEquipartition, PolicyKind::kDynamic,
                                           PolicyKind::kDynAff),
                         [](const ::testing::TestParamInfo<PolicyKind>& param) {
                           std::string name = PolicyKindName(param.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(MeteredPolicy, CountsDecisionsWithoutChangingThem) {
  MachineConfig machine;
  machine.num_processors = 8;
  auto run = [&](bool metered, MetricsRegistry* registry) {
    std::unique_ptr<Policy> policy = MakePolicy(PolicyKind::kDynAff);
    if (metered) {
      auto wrapped = std::make_unique<MeteredPolicy>(std::move(policy));
      wrapped->AttachMetrics(registry);
      policy = std::move(wrapped);
    }
    Engine engine(machine, std::move(policy), 42);
    engine.SubmitJob(MakeSmallMvaProfile());
    engine.SubmitJob(MakeSmallGravityProfile());
    return engine.Run();
  };

  MetricsRegistry registry;
  const SimTime plain = run(false, nullptr);
  const SimTime metered = run(true, &registry);
  EXPECT_EQ(plain, metered);  // the decorator must be behaviourally invisible

  EXPECT_EQ(registry.FindCounter("policy.on_arrival")->value(), 2.0);
  // The engine short-circuits the final departure (nothing left to allocate),
  // so only the first of the two departures consults the policy.
  EXPECT_EQ(registry.FindCounter("policy.on_departure")->value(), 1.0);
  EXPECT_GT(registry.FindCounter("policy.on_request")->value(), 0.0);
  EXPECT_GT(registry.FindCounter("policy.assignments")->value(), 0.0);
}

TEST(EngineMetrics, AttachingMetricsDoesNotPerturbTheSimulation) {
  MachineConfig machine;
  machine.num_processors = 8;
  auto run = [&](bool with_metrics) {
    MetricsRegistry registry;
    Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 42);
    if (with_metrics) {
      engine.SetMetrics(&registry);
    }
    engine.SubmitJob(MakeSmallMvaProfile());
    engine.SubmitJob(MakeSmallGravityProfile());
    return engine.Run();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace affsched
