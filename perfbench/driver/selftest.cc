// Tests for the benchmark's own instrumentation: the timing decorators must
// not change what the simulator computes, and the cache replay must make one
// ExecuteChunk call per chunk the traced cell executed.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/layers.h"
#include "driver/workloads.h"
#include "src/measure/experiment.h"
#include "src/runner/runner.h"
#include "src/runner/sweep.h"

namespace perfbench {
namespace {

using namespace affsched;

// Runs `spec_text` through SweepRunner with every cell built by
// RunClosedCell, so the policy sits behind TimedPolicy when `tracer` is set.
std::string WrappedDocument(const std::string& spec_text, Tracer* tracer, bool attach_sinks) {
  SweepSpec spec;
  std::string error;
  EXPECT_TRUE(ParseSweepSpec(spec_text, &spec, &error)) << error;
  SweepRunnerOptions options;
  options.jobs = 1;
  options.run_cell = [&](const SweepCellRef&, const MachineConfig& machine, PolicyKind policy,
                         const std::vector<AppProfile>& jobs, uint64_t seed,
                         const EngineOptions& engine) {
    return RunClosedCell(machine, policy, jobs, seed, engine,
                         CellOptions{attach_sinks, tracer, nullptr}, nullptr);
  };
  return SweepRunner(options).Run(spec).ToJson();
}

std::string PlainDocument(const std::string& spec_text) {
  SweepSpec spec;
  std::string error;
  EXPECT_TRUE(ParseSweepSpec(spec_text, &spec, &error)) << error;
  SweepRunnerOptions options;
  options.jobs = 1;
  return SweepRunner(options).Run(spec).ToJson();
}

// Each spec leans on different Policy virtuals: YieldDelay (dyn-aff-delay),
// Quantum/OnQuantumExpiry (timeshare), BalanceInterval/OnBalanceTick (mq),
// ColorMask (rt, on the partitioned cache).
class DecoratorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DecoratorTest, WrappedRunProducesTheSameDocument) {
  const std::string spec = GetParam();
  Tracer tracer;
  EXPECT_EQ(WrappedDocument(spec, &tracer, false), PlainDocument(spec));
  EXPECT_GT(tracer.totals(Layer::kPolicy).count, 0u);
  EXPECT_GT(tracer.totals(Layer::kRun).count, 0u);
}

TEST_P(DecoratorTest, AttachedSinksDoNotChangeTheDocument) {
  const std::string spec = GetParam();
  Tracer tracer;
  EXPECT_EQ(WrappedDocument(spec, &tracer, true), PlainDocument(spec));
  EXPECT_GT(tracer.totals(Layer::kTraceSink).count, 0u);
  EXPECT_GT(tracer.totals(Layer::kDecisionSink).count, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, DecoratorTest,
    ::testing::Values("smoke;reps=1;mixes=1", "policies=dyn-aff-delay,timeshare;mixes=1;reps=1",
                      "mq;reps=1;mixes=1", "rt;reps=1;mixes=1"));

TEST(DecoratorTest, BalanceTicksAreTimedSeparately) {
  Tracer tracer;
  WrappedDocument("mq;reps=1;mixes=1", &tracer, false);
  EXPECT_GT(tracer.totals(Layer::kBalance).count, 0u);
}

TEST(DecoratorTest, ForwardsEveryVirtual) {
  for (PolicyKind kind : {PolicyKind::kDynAffDelay, PolicyKind::kTimeShare, PolicyKind::kMqNuma,
                          PolicyKind::kRtColorIso}) {
    std::unique_ptr<Policy> plain = MakePolicy(kind);
    TimedPolicy timed(MakePolicy(kind), nullptr);
    EXPECT_EQ(timed.name(), plain->name());
    EXPECT_EQ(timed.YieldDelay(), plain->YieldDelay());
    EXPECT_EQ(timed.UsesAffinity(), plain->UsesAffinity());
    EXPECT_EQ(timed.Quantum(), plain->Quantum());
    EXPECT_EQ(timed.BalanceInterval(), plain->BalanceInterval());
  }
}

TEST(TracerTest, SelfTimeExcludesChildren) {
  Tracer tracer;
  {
    Tracer::Scope cell(&tracer, Layer::kCell);
    Tracer::Scope run(&tracer, Layer::kRun);
    { Tracer::Scope policy(&tracer, Layer::kPolicy); }
  }
  const Tracer::Totals& run = tracer.totals(Layer::kRun);
  const Tracer::Totals& policy = tracer.totals(Layer::kPolicy);
  EXPECT_EQ(run.count, 1u);
  EXPECT_EQ(run.self_ns, run.total_ns - policy.total_ns);
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 1u);  // run inside cell
  EXPECT_EQ(tracer.spans()[2].parent, 2u);  // policy inside run
}

TEST(TracerTest, KeepsTotalsPastTheSpanCap) {
  Tracer tracer(2);
  for (int i = 0; i < 5; ++i) {
    Tracer::Scope scope(&tracer, Layer::kPolicy);
  }
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
  EXPECT_EQ(tracer.totals(Layer::kPolicy).count, 5u);
}

void ExpectReplayMatchesTrace(const std::string& spec_text) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec(spec_text, &spec, &error)) << error;
  const std::vector<AppProfile> jobs = spec.mixes[0].Expand(spec.apps);
  CellCounts counts;
  std::vector<TraceEvent> events;
  RunClosedCell(spec.machine, spec.policies[0], jobs, 42, spec.engine,
                CellOptions{true, nullptr, &events}, &counts);
  ASSERT_GT(counts.chunks, 0u);
  std::vector<WorkingSetParams> job_ws;
  for (const AppProfile& profile : jobs) {
    job_ws.push_back(profile.working_set);
  }
  const std::vector<Placement> placements = PlacementsFromTrace(events);
  ASSERT_FALSE(placements.empty());
  const ReplayTiming timing =
      ReplayChunks(spec.machine, placements, job_ws, counts.chunks, spec.engine.chunk_quantum);
  EXPECT_EQ(timing.calls, counts.chunks);
}

TEST(ReplayTest, ChunkReplayCallsEqualTracedChunksFlat) {
  ExpectReplayMatchesTrace("policies=dyn-aff;mixes=5;reps=1");
}

TEST(ReplayTest, ChunkReplayCallsEqualTracedChunksHierarchical) {
  ExpectReplayMatchesTrace("mq;policies=mq-numa;mixes=1;reps=1");
}

TEST(ReplayTest, QueueReplayRunsTheCellsEventCount) {
  EventQueue::Stats stats;
  stats.run = 10000;
  stats.scheduled = 12000;
  stats.cancelled = 2000;
  stats.pool_high_water = 40;
  const ReplayTiming timing = ReplayQueue(stats, 7);
  // Every step runs once, plus one closing no-op per chain and at most one
  // armed timer left uncancelled.
  EXPECT_GE(timing.calls, stats.run);
  EXPECT_LE(timing.calls, stats.run + stats.pool_high_water + 1);
}

TEST(IdentityTest, HoldsOnASimulatedCell) {
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke", &spec, &error)) << error;
  const RunResult run = RunOnce(spec.machine, PolicyKind::kDynAff,
                                spec.mixes[1].Expand(spec.apps), 4242, spec.engine);
  EXPECT_LT(IdentityRelError(run), 1e-9);
  RunResult broken = run;
  broken.jobs[0].stats.waste_s += 0.01 * broken.jobs[0].stats.alloc_integral_s;
  EXPECT_GT(IdentityRelError(broken), 1e-3);
}

}  // namespace
}  // namespace perfbench
