#include "src/engine/accounting.h"

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/cache/footprint.h"
#include "src/common/time.h"
#include "src/stats/histogram.h"
#include "src/telemetry/metrics.h"
#include "tests/engine/core_harness.h"

namespace affsched {
namespace {

// Advances the harness clock by scheduling and draining a no-op event.
void AdvanceTo(CoreHarness& h, SimTime when) {
  h.core.queue.ScheduleAt(when, [] {});
  while (h.core.queue.now() < when) {
    ASSERT_TRUE(h.core.queue.RunNext());
  }
}

TEST(AccountingTest, ChargeChunkAccumulatesWorkAndStallSplit) {
  CoreHarness h;
  MetricsRegistry registry;
  h.acct.SetMetrics(&registry);
  const JobId id = h.AddActiveJob(1, Milliseconds(10));
  JobState& js = h.core.job_state(id);

  h.acct.ChargeChunk(js, Milliseconds(2), Microseconds(100), Microseconds(50));
  h.acct.ChargeChunk(js, Milliseconds(1), 0, 0);

  const JobStats& st = js.job->stats();
  const double expected_work =
      ToSeconds(h.core.machine.config().ComputeTime(Milliseconds(3)));
  EXPECT_NEAR(st.useful_work_s, expected_work, 1e-12);
  EXPECT_DOUBLE_EQ(st.reload_stall_s, ToSeconds(Microseconds(100)));
  EXPECT_DOUBLE_EQ(st.steady_stall_s, ToSeconds(Microseconds(50)));
  // Chunks are counted as they run; the stall totals are JobStats', written
  // at the end of the run.
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.chunks")->value(), 2.0);
  h.acct.FinalizeMetrics();
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.reload_stall_ns")->value(),
                   static_cast<double>(Microseconds(100)));
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.steady_stall_ns")->value(),
                   static_cast<double>(Microseconds(50)));
}

TEST(AccountingTest, ChargeSwitchAddsOneKernelPathLength) {
  CoreHarness h;
  MetricsRegistry registry;
  h.acct.SetMetrics(&registry);
  const JobId id = h.AddActiveJob(1, Milliseconds(10));
  JobState& js = h.core.job_state(id);

  h.acct.ChargeSwitch(js);
  h.acct.ChargeSwitch(js);

  EXPECT_DOUBLE_EQ(js.job->stats().switch_s,
                   2.0 * ToSeconds(h.core.machine.config().SwitchCost()));
  h.acct.FinalizeMetrics();
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.switch_time_ns")->value(),
                   2.0 * static_cast<double>(h.core.machine.config().SwitchCost()));
}

TEST(AccountingTest, ChargeWasteAccumulatesHeldTime) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(1, Milliseconds(10));
  JobState& js = h.core.job_state(id);

  h.acct.ChargeWaste(js, Milliseconds(3));
  h.acct.ChargeWaste(js, Microseconds(500));

  EXPECT_DOUBLE_EQ(js.job->stats().waste_s, ToSeconds(Microseconds(3500)));
}

TEST(AccountingTest, RecordDispatchTracksAffinityFraction) {
  CoreHarness h;
  MetricsRegistry registry;
  h.acct.SetMetrics(&registry);
  const JobId id = h.AddActiveJob(1, Milliseconds(10));
  JobState& js = h.core.job_state(id);

  h.acct.RecordDispatch(js, /*proc=*/0, /*affine=*/false);
  h.acct.RecordDispatch(js, /*proc=*/0, /*affine=*/true);
  h.acct.RecordDispatch(js, /*proc=*/0, /*affine=*/false);
  h.acct.RecordDispatch(js, /*proc=*/0, /*affine=*/true);

  const JobStats& st = js.job->stats();
  EXPECT_EQ(st.reallocations, 4u);
  EXPECT_EQ(st.affinity_dispatches, 2u);
  EXPECT_DOUBLE_EQ(st.AffinityFraction(), 0.5);
  h.acct.FinalizeMetrics();
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.dispatches")->value(), 4.0);
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.dispatches_affine")->value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.FindGauge("engine.affinity.affine_fraction")->value(), 0.5);
}

TEST(AccountingTest, ChangeAllocationIntegratesProcessorSeconds) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(1, Milliseconds(10));
  JobState& js = h.core.job_state(id);

  h.acct.ChangeAllocation(id, +2);
  AdvanceTo(h, Milliseconds(1000));
  h.acct.ChangeAllocation(id, -1);
  AdvanceTo(h, Milliseconds(1500));
  h.acct.UpdateAllocIntegral(id);

  // 2 processors for 1 s, then 1 processor for 0.5 s.
  EXPECT_NEAR(js.job->stats().alloc_integral_s, 2.5, 1e-9);
  EXPECT_EQ(js.allocation, 1u);
}

TEST(AccountingTest, AllocIntegralFreezesAtCompletion) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(1, Milliseconds(10));
  JobState& js = h.core.job_state(id);

  h.acct.ChangeAllocation(id, +1);
  AdvanceTo(h, Milliseconds(1000));
  js.job->stats().completion = h.core.queue.now();
  AdvanceTo(h, Milliseconds(2000));
  h.acct.UpdateAllocIntegral(id);

  EXPECT_NEAR(js.job->stats().alloc_integral_s, 0.0, 1e-12)
      << "integral updates after completion must be no-ops";
}

TEST(AccountingTest, PriorityFavoursJobsBelowFairShare) {
  CoreHarness h(/*procs=*/4);
  const JobId starved = h.AddActiveJob(4, Milliseconds(10));
  const JobId greedy = h.AddActiveJob(4, Milliseconds(10));

  // Fair share is 2; give one job everything.
  h.acct.ChangeAllocation(greedy, +4);
  AdvanceTo(h, Milliseconds(500));

  EXPECT_GT(h.core.Priority(starved), 0.0);
  EXPECT_LT(h.core.Priority(greedy), 0.0);
  EXPECT_GT(h.core.Priority(starved), h.core.Priority(greedy));
}

TEST(AccountingTest, UpdateCreditBanksAccruedPriority) {
  CoreHarness h(/*procs=*/4);
  const JobId id = h.AddActiveJob(4, Milliseconds(10));
  AdvanceTo(h, Milliseconds(1000));

  const double before = h.core.Priority(id);
  h.acct.UpdateCredit(id);
  JobState& js = h.core.job_state(id);
  EXPECT_DOUBLE_EQ(js.credit, before);
  EXPECT_EQ(js.credit_update, h.core.queue.now());
  // Banking is transparent at the instant it happens.
  EXPECT_DOUBLE_EQ(h.core.Priority(id), before);
}

TEST(AccountingTest, RunningWorkerTransitionsFeedParallelismHistogram) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(2, Milliseconds(10));
  JobState& js = h.core.job_state(id);
  js.par_hist = std::make_unique<WeightedHistogram>(h.core.procs.size());
  const CacheOwner w1 = h.core.CreateWorker(id);
  const CacheOwner w2 = h.core.CreateWorker(id);

  h.acct.SetRunning(1, w1);
  AdvanceTo(h, Milliseconds(1000));
  h.acct.SetRunning(0, w2);
  AdvanceTo(h, Milliseconds(1500));
  h.acct.SetRunning(1, kNoOwner);
  h.acct.SetRunning(0, kNoOwner);

  // 1 worker for 1 s, 2 workers for 0.5 s.
  EXPECT_NEAR(js.par_hist->TotalWeight(), 1.5, 1e-9);
  EXPECT_NEAR(js.par_hist->Fraction(1), 1.0 / 1.5, 1e-9);
  EXPECT_NEAR(js.par_hist->Fraction(2), 0.5 / 1.5, 1e-9);
  EXPECT_EQ(js.running, 0u);
  EXPECT_EQ(h.core.procs[0].running, kNoOwner);
  EXPECT_EQ(h.core.procs[1].running, kNoOwner);
}

// Workers start and stop out of processor order; each job's running count
// follows its own workers only, which is what a scan of every processor
// counts (debug builds run that scan inside SetRunning too).
TEST(AccountingTest, RunningCountTracksJoinsAndLeaves) {
  CoreHarness h(/*procs=*/6);
  const JobId a = h.AddActiveJob(4, Milliseconds(10));
  const JobId b = h.AddActiveJob(2, Milliseconds(10));
  const CacheOwner a1 = h.core.CreateWorker(a);
  const CacheOwner a2 = h.core.CreateWorker(a);
  const CacheOwner a3 = h.core.CreateWorker(a);
  const CacheOwner a4 = h.core.CreateWorker(a);
  const CacheOwner b1 = h.core.CreateWorker(b);
  const size_t& running = h.core.job_state(a).running;

  h.acct.SetRunning(4, a1);
  h.acct.SetRunning(1, a2);
  h.acct.SetRunning(3, b1);
  h.acct.SetRunning(5, a3);
  h.acct.SetRunning(0, a4);
  EXPECT_EQ(running, 4u);
  EXPECT_EQ(h.core.job_state(b).running, 1u);

  h.acct.SetRunning(4, kNoOwner);
  h.acct.SetRunning(0, kNoOwner);
  EXPECT_EQ(running, 2u);
  EXPECT_EQ(h.core.procs[4].running, kNoOwner);
  EXPECT_EQ(h.core.procs[5].running, a3);

  // A worker that stopped may start again elsewhere.
  h.acct.SetRunning(2, a1);
  EXPECT_EQ(running, 3u);
  EXPECT_EQ(h.core.job_state(b).running, 1u);
}

// A worker that stops running mid-debt pays it on the way out: its
// footprint has lost what its siblings' shared writes invalidated before
// anything (a policy's reload-cost scoring, the next dispatch) reads it.
// A worker that starts owes nothing of the debt accrued before it ran.
TEST(AccountingTest, LeavingTheRunningSetSettlesTheDebt) {
  CoreHarness h(/*procs=*/2);
  const JobId id = h.AddActiveJob(2, Milliseconds(10));
  JobState& js = h.core.job_state(id);
  const CacheOwner w1 = h.core.CreateWorker(id);
  const CacheOwner w2 = h.core.CreateWorker(id);
  FootprintCache& cache = h.core.machine.processor(1).cache();
  cache.SetResident(w2, 500.0);

  js.invalidation_debt = 40.0;  // accrued while neither ran
  h.acct.SetRunning(0, w1);
  h.acct.SetRunning(1, w2);
  EXPECT_DOUBLE_EQ(h.core.worker(w2).settled_debt, 40.0);
  js.invalidation_debt += 120.0;  // w1's chunks' shared writes

  h.acct.SetRunning(1, kNoOwner);
  EXPECT_DOUBLE_EQ(cache.Resident(w2), 380.0);
  EXPECT_DOUBLE_EQ(h.core.worker(w2).settled_debt, 160.0);
  EXPECT_DOUBLE_EQ(h.core.machine.bus().total_transfers(), 120.0);

  // Settled once: starting and stopping again erodes nothing more.
  h.acct.SetRunning(1, w2);
  h.acct.SetRunning(1, kNoOwner);
  EXPECT_DOUBLE_EQ(cache.Resident(w2), 380.0);
  EXPECT_DOUBLE_EQ(h.core.machine.bus().total_transfers(), 120.0);
}

TEST(AccountingTest, SetMetricsNullptrDetachesAllHandles) {
  CoreHarness h;
  MetricsRegistry registry;
  h.acct.SetMetrics(&registry);
  ASSERT_EQ(h.acct.metrics(), &registry);
  h.acct.SetMetrics(nullptr);
  EXPECT_EQ(h.acct.metrics(), nullptr);

  // Charges, notes and the end-of-run totals are safe with metrics detached
  // and leave the once-attached registry untouched.
  const JobId id = h.AddActiveJob(1, Milliseconds(10));
  h.acct.ChargeChunk(h.core.job_state(id), Milliseconds(1), 0, 0);
  h.acct.RecordDispatch(h.core.job_state(id), /*proc=*/0, true);
  h.acct.Note(TraceEventKind::kHold, /*proc=*/0, id);
  h.acct.NoteDecision(DecisionSite::kRequest, PolicyDecision{});
  h.acct.FinalizeMetrics();
  EXPECT_EQ(registry.FindCounter("engine.chunks")->value(), 0.0);
  EXPECT_EQ(registry.FindCounter("engine.holds")->value(), 0.0);
  EXPECT_EQ(registry.FindCounter("policy.on_request")->value(), 0.0);
  EXPECT_EQ(registry.FindCounter("engine.dispatches"), nullptr);
}

}  // namespace
}  // namespace affsched
