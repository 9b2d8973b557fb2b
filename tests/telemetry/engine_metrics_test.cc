// End-to-end check of the engine's metric instrumentation: the registry's
// totals are the JobStats totals the paper's response-time decomposition is
// built on, the counts streamed during the run agree with them, and
// attaching any sink leaves the simulated trajectory untouched.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/apps.h"
#include "src/engine/engine.h"
#include "src/rt/deadline_mix.h"
#include "src/sched/factory.h"
#include "src/telemetry/job_spans.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sampler.h"
#include "src/topology/topology.h"
#include "src/trace/decision_trace.h"
#include "src/trace/trace.h"

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

  auto counter = [&](const std::string& name) {
    const Counter* c = registry.FindCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : -1.0;
  };
  JobStats total;
  double per_job_reallocations = 0.0;
  double per_job_reload_ns = 0.0;
  for (JobId id = 0; id < engine.job_count(); ++id) {
    total.Accumulate(engine.job_stats(id));
    const std::string prefix =
        "engine.job." + engine.job_name(id) + "#" + std::to_string(id);
    per_job_reallocations += counter(prefix + ".reallocations");
    per_job_reload_ns += counter(prefix + ".reload_stall_ns");
  }

  // Totals JobStats holds are written from it, durations in whole
  // nanoseconds.
  EXPECT_EQ(counter("engine.dispatches"), static_cast<double>(total.reallocations));
  EXPECT_EQ(counter("engine.dispatches_affine"),
            static_cast<double>(total.affinity_dispatches));
  EXPECT_EQ(per_job_reallocations, counter("engine.dispatches"));
  EXPECT_EQ(counter("engine.reload_stall_ns"), std::round(total.reload_stall_s * 1e9));
  EXPECT_EQ(counter("engine.waste_ns"), std::round(total.waste_s * 1e9));
  // Each job's value is rounded on its own.
  EXPECT_NEAR(per_job_reload_ns, counter("engine.reload_stall_ns"),
              static_cast<double>(engine.job_count()));
  EXPECT_EQ(registry.FindGauge("engine.affinity.affine_fraction")->value(),
            total.AffinityFraction());

  // Counts streamed during the run agree with the JobStats charges: one
  // path-length charge per switch event, one arrival and one completion per
  // job.
  EXPECT_EQ(counter("engine.switch_time_ns"),
            counter("engine.switches") *
                static_cast<double>(engine.machine().config().SwitchCost()));
  EXPECT_EQ(counter("engine.job_arrivals"), static_cast<double>(engine.job_count()));
  EXPECT_EQ(counter("engine.job_completions"), static_cast<double>(engine.job_count()));

  // The active-jobs gauge reads zero once the run drained.
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

// Forwards every Policy virtual and counts the decision hooks, so the test
// can compare the engine's policy.* counters against the calls it made.
class HookCountingPolicy : public Policy {
 public:
  explicit HookCountingPolicy(std::unique_ptr<Policy> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  PolicyDecision OnJobArrival(const SchedView& view, JobId job) override {
    ++arrivals;
    return inner_->OnJobArrival(view, job);
  }
  PolicyDecision OnJobDeparture(const SchedView& view, JobId job) override {
    ++departures;
    return inner_->OnJobDeparture(view, job);
  }
  PolicyDecision OnProcessorAvailable(const SchedView& view, size_t proc) override {
    ++available;
    return inner_->OnProcessorAvailable(view, proc);
  }
  PolicyDecision OnRequest(const SchedView& view, JobId job) override {
    ++requests;
    return inner_->OnRequest(view, job);
  }
  PolicyDecision OnQuantumExpiry(const SchedView& view, size_t proc) override {
    return inner_->OnQuantumExpiry(view, proc);
  }
  PolicyDecision OnBalanceTick(const SchedView& view) override {
    return inner_->OnBalanceTick(view);
  }
  SimDuration YieldDelay() const override { return inner_->YieldDelay(); }
  bool UsesAffinity() const override { return inner_->UsesAffinity(); }
  SimDuration Quantum() const override { return inner_->Quantum(); }
  SimDuration BalanceInterval() const override { return inner_->BalanceInterval(); }
  uint64_t ColorMask(const SchedView& view, JobId job) override {
    return inner_->ColorMask(view, job);
  }

  double arrivals = 0;
  double departures = 0;
  double available = 0;
  double requests = 0;

 private:
  std::unique_ptr<Policy> inner_;
};

// The policy.* counters are counted where decisions are applied, one per
// hook call (empty OnRequest answers included), keyed by decision site.
TEST(EngineMetrics, CountsPolicyDecisionsBySite) {
  MachineConfig machine;
  machine.num_processors = 8;
  MetricsRegistry registry;
  auto policy = std::make_unique<HookCountingPolicy>(MakePolicy(PolicyKind::kDynAff));
  const HookCountingPolicy& calls = *policy;
  Engine engine(machine, std::move(policy), 42);
  engine.SetMetrics(&registry);
  engine.SubmitJob(MakeSmallMvaProfile());
  engine.SubmitJob(MakeSmallGravityProfile());
  engine.Run();

  EXPECT_EQ(registry.FindCounter("policy.on_arrival")->value(), 2.0);
  // The engine short-circuits the final departure (nothing left to allocate),
  // so only the first of the two departures consults the policy.
  EXPECT_EQ(registry.FindCounter("policy.on_departure")->value(), 1.0);
  EXPECT_EQ(registry.FindCounter("policy.on_arrival")->value(), calls.arrivals);
  EXPECT_EQ(registry.FindCounter("policy.on_departure")->value(), calls.departures);
  EXPECT_EQ(registry.FindCounter("policy.on_available")->value(), calls.available);
  EXPECT_EQ(registry.FindCounter("policy.on_request")->value(), calls.requests);
  EXPECT_GT(calls.requests, 0.0);
  EXPECT_GT(registry.FindCounter("policy.assignments")->value(), 0.0);
  // Dyn-Aff has no quantum and no balance tick, and never repartitions.
  EXPECT_EQ(registry.FindCounter("policy.on_quantum")->value(), 0.0);
  EXPECT_EQ(registry.FindCounter("policy.on_balance")->value(), 0.0);
  EXPECT_EQ(registry.FindCounter("policy.repartitions")->value(), 0.0);
}

struct Scenario {
  std::string label;
  MachineConfig machine;
  PolicyKind policy;
  std::vector<AppProfile> jobs;
};

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> scenarios;
  MachineConfig flat;
  flat.num_processors = 8;
  scenarios.push_back({"flat dyn-aff", flat, PolicyKind::kDynAff,
                       {MakeSmallMvaProfile(), MakeSmallGravityProfile()}});

  MachineConfig colored = flat;
  colored.num_colors = 8;
  std::vector<AppProfile> rt_jobs = {MakeSmallMvaProfile(), MakeSmallMatrixProfile(),
                                     MakeSmallGravityProfile()};
  EXPECT_TRUE(ApplyDeadlineMix("soft", colored.num_processors, &rt_jobs));
  scenarios.push_back({"8-color rt-color-iso", colored, PolicyKind::kRtColorIso, rt_jobs});

  MachineConfig numa;
  numa.num_processors = 16;
  std::string error;
  EXPECT_TRUE(ParseTopologySpec("numa-4x8,cores-per-cluster=4,clusters-per-node=2",
                                &numa.topology, &error))
      << error;
  scenarios.push_back({"numa-4x8 mq-numa", numa, PolicyKind::kMqNuma,
                       {MakeSmallMvaProfile(), MakeSmallMatrixProfile(),
                        MakeSmallGravityProfile()}});
  return scenarios;
}

std::vector<JobStats> RunScenario(const Scenario& scenario, bool observed) {
  MetricsRegistry registry;
  RingTrace trace;
  DecisionTrace decisions;
  JobSpanCollector spans;
  Sampler sampler(Milliseconds(10));
  Engine engine(scenario.machine, MakePolicy(scenario.policy), 42);
  if (observed) {
    engine.SetMetrics(&registry);
    engine.SetTraceSink(&trace);
    engine.SetDecisionSink(&decisions);
    engine.SetSpanCollector(&spans);
    engine.SetSampler(&sampler);
  }
  for (const AppProfile& job : scenario.jobs) {
    engine.SubmitJob(job);
  }
  engine.Run();
  std::vector<JobStats> stats;
  for (JobId id = 0; id < engine.job_count(); ++id) {
    stats.push_back(engine.job_stats(id));
  }
  return stats;
}

// Every sink attached at once must leave every JobStats field bit-identical
// to a run with none, on a flat, a partitioned and a hierarchical machine.
TEST(EngineMetrics, AttachingMetricsDoesNotPerturbTheSimulation) {
  for (const Scenario& scenario : Scenarios()) {
    const std::vector<JobStats> plain = RunScenario(scenario, false);
    const std::vector<JobStats> observed = RunScenario(scenario, true);
    ASSERT_EQ(plain.size(), observed.size()) << scenario.label;
    for (size_t j = 0; j < plain.size(); ++j) {
      EXPECT_TRUE(plain[j] == observed[j]) << scenario.label << ", job " << j;
    }
  }
}

}  // namespace
}  // namespace affsched
