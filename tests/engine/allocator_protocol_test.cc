#include "src/engine/allocator_protocol.h"

#include <map>

#include "gtest/gtest.h"
#include "src/common/time.h"
#include "src/telemetry/metrics.h"
#include "tests/engine/core_harness.h"

namespace affsched {
namespace {

void Drain(CoreHarness& h) {
  while (!h.core.queue.empty()) {
    h.core.queue.RunNext();
  }
}

// Runs events until `proc` is executing a chunk (or the queue runs dry).
void RunUntilRunning(CoreHarness& h, size_t proc) {
  while (h.core.procs[proc].running == kNoOwner && !h.core.queue.empty()) {
    h.core.queue.RunNext();
  }
}

TEST(AllocatorProtocolTest, StartSwitchChargesPathLengthThenDispatches) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(1, Milliseconds(4));

  h.alloc.StartSwitch(0, id, kNoOwner);

  ProcState& ps = h.core.procs[0];
  JobState& js = h.core.job_state(id);
  EXPECT_EQ(ps.holder, id);
  EXPECT_TRUE(ps.switching);
  EXPECT_EQ(js.allocation, 1u);
  EXPECT_EQ(js.switching_in, 1u);
  EXPECT_DOUBLE_EQ(js.job->stats().switch_s,
                   ToSeconds(h.core.machine.config().SwitchCost()));

  RunUntilRunning(h, 0);
  EXPECT_FALSE(ps.switching);
  EXPECT_EQ(js.switching_in, 0u);
  ASSERT_NE(ps.running, kNoOwner);
  EXPECT_EQ(h.core.queue.now(), h.core.machine.config().SwitchCost());
}

TEST(AllocatorProtocolTest, SetPendingAndClearPendingKeepCommitmentCounts) {
  CoreHarness h;
  const JobId a = h.AddActiveJob(1, Milliseconds(4));
  const JobId b = h.AddActiveJob(1, Milliseconds(4));
  h.alloc.StartSwitch(0, a, kNoOwner);
  RunUntilRunning(h, 0);

  h.alloc.SetPending(0, b, kNoOwner);
  ProcState& ps = h.core.procs[0];
  EXPECT_TRUE(ps.pending_valid);
  EXPECT_EQ(ps.pending_job, b);
  EXPECT_FALSE(ps.willing);
  EXPECT_EQ(h.core.job_state(b).pending_incoming, 1u);
  EXPECT_EQ(h.core.job_state(a).pending_outgoing, 1u);
  // Committed reassignments shrink the source's effective allocation and do
  // not yet grow the target's.
  EXPECT_EQ(h.core.EffectiveAllocation(a), 0u);
  EXPECT_EQ(h.core.EffectiveAllocation(b), 1u);

  h.alloc.ClearPending(0);
  EXPECT_FALSE(ps.pending_valid);
  EXPECT_EQ(h.core.job_state(b).pending_incoming, 0u);
  EXPECT_EQ(h.core.job_state(a).pending_outgoing, 0u);
}

TEST(AllocatorProtocolTest, PendingReassignmentPreemptsAtChunkBoundary) {
  CoreHarness h;
  const JobId a = h.AddActiveJob(1, Milliseconds(10));
  const JobId b = h.AddActiveJob(1, Milliseconds(10));
  h.alloc.StartSwitch(0, a, kNoOwner);
  RunUntilRunning(h, 0);

  h.alloc.SetPending(0, b, kNoOwner);
  // Next chunk boundary: a's thread is preempted mid-flight and the processor
  // switches to b.
  while ((h.core.procs[0].holder != b || h.core.procs[0].running == kNoOwner) &&
         !h.core.queue.empty()) {
    h.core.queue.RunNext();
  }

  ProcState& ps = h.core.procs[0];
  EXPECT_EQ(ps.holder, b);
  EXPECT_EQ(h.core.worker(ps.running).job, b);
  JobState& ja = h.core.job_state(a);
  EXPECT_EQ(ja.allocation, 0u);
  EXPECT_EQ(ja.idle_workers.size(), 1u);
  // The preempted thread kept its progress: one 2 ms chunk of 10 ms ran.
  ASSERT_TRUE(ja.job->HasReadyThread());
  const ThreadRef t = ja.job->PopReadyThread();
  EXPECT_EQ(t.remaining, Milliseconds(8));
  EXPECT_EQ(ja.job->stats().reallocations, 1u);
}

TEST(AllocatorProtocolTest, RetargetDuringSwitchSwitchesAgain) {
  CoreHarness h;
  const JobId a = h.AddActiveJob(1, Milliseconds(4));
  const JobId b = h.AddActiveJob(1, Milliseconds(4));
  h.alloc.StartSwitch(0, a, kNoOwner);
  // Retarget while the first switch is still in flight.
  h.alloc.SetPending(0, b, kNoOwner);

  RunUntilRunning(h, 0);

  ProcState& ps = h.core.procs[0];
  EXPECT_EQ(ps.holder, b);
  EXPECT_EQ(h.core.job_state(a).allocation, 0u);
  EXPECT_EQ(h.core.job_state(b).allocation, 1u);
  // Two full path-length charges elapsed before work started.
  EXPECT_EQ(h.core.queue.now(), 2 * h.core.machine.config().SwitchCost());
  // a was charged for a switch that never dispatched (the paper's reallocation
  // overhead is paid on the way in).
  EXPECT_DOUBLE_EQ(h.core.job_state(a).job->stats().switch_s,
                   ToSeconds(h.core.machine.config().SwitchCost()));
}

TEST(AllocatorProtocolTest, HoldingProcessorYieldsThenReleaseAccountsWaste) {
  CoreHarness h;
  MetricsRegistry registry;
  h.acct.SetMetrics(&registry);
  const JobId id = h.AddActiveJob(1, Milliseconds(4));
  // No ready work: the dispatched worker holds the processor.
  h.core.job_state(id).job->PopReadyThread();
  h.alloc.StartSwitch(0, id, kNoOwner);
  Drain(h);

  ProcState& ps = h.core.procs[0];
  ASSERT_NE(ps.holding, kNoOwner);
  EXPECT_TRUE(ps.willing) << "zero yield delay advertises immediately";
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.holds")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.yields")->value(), 1.0);

  const SimTime hold_start = ps.hold_start;
  h.core.queue.ScheduleAfter(Milliseconds(3), [] {});
  h.core.queue.RunNext();
  h.alloc.ReleaseFromHolder(0);

  EXPECT_EQ(ps.holder, kInvalidJobId);
  EXPECT_EQ(ps.holding, kNoOwner);
  EXPECT_FALSE(ps.willing);
  JobState& js = h.core.job_state(id);
  EXPECT_EQ(js.allocation, 0u);
  EXPECT_EQ(js.idle_workers.size(), 1u);
  EXPECT_DOUBLE_EQ(js.job->stats().waste_s,
                   ToSeconds(h.core.queue.now() - hold_start));
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.releases")->value(), 1.0);
}

TEST(AllocatorProtocolTest, NotifyNewWorkResumesHoldersWithoutReallocation) {
  CoreHarness h;
  MetricsRegistry registry;
  h.acct.SetMetrics(&registry);
  const JobId a = h.AddActiveJob(1, Milliseconds(10));
  const JobId b = h.AddActiveJob(1, Milliseconds(10));
  // a gets both processors: proc 0 runs its only thread, proc 1 holds.
  h.alloc.StartSwitch(0, a, kNoOwner);
  h.alloc.StartSwitch(1, a, kNoOwner);
  RunUntilRunning(h, 0);
  while (h.core.procs[1].holding == kNoOwner && !h.core.queue.empty()) {
    h.core.queue.RunNext();
  }
  ASSERT_NE(h.core.procs[1].holding, kNoOwner);
  const uint64_t reallocs_before = h.core.job_state(a).job->stats().reallocations;

  // Preempt proc 0 toward b; the preempted thread becomes new work that the
  // holder on proc 1 absorbs with no reallocation cost.
  h.alloc.SetPending(0, b, kNoOwner);
  RunUntilRunning(h, 1);

  ProcState& p1 = h.core.procs[1];
  ASSERT_NE(p1.running, kNoOwner);
  EXPECT_EQ(h.core.worker(p1.running).job, a);
  EXPECT_EQ(p1.holding, kNoOwner);
  EXPECT_FALSE(p1.willing);
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.resumes")->value(), 1.0);
  EXPECT_EQ(h.core.job_state(a).job->stats().reallocations, reallocs_before)
      << "resuming a held processor is not a reallocation";
  EXPECT_EQ(h.core.procs[0].holder, b);
}

TEST(AllocatorProtocolTest, AssignProcessorRoutesByProcessorState) {
  CoreHarness h;
  const JobId a = h.AddActiveJob(2, Milliseconds(10));
  const JobId b = h.AddActiveJob(1, Milliseconds(10));

  // Free processor: assignment starts a switch immediately.
  h.alloc.AssignProcessor(Assignment{.proc = 0, .job = a});
  EXPECT_EQ(h.core.procs[0].holder, a);
  EXPECT_TRUE(h.core.procs[0].switching);

  // Busy processor: assignment becomes a pending reassignment.
  RunUntilRunning(h, 0);
  h.alloc.AssignProcessor(Assignment{.proc = 0, .job = b});
  EXPECT_TRUE(h.core.procs[0].pending_valid);
  EXPECT_EQ(h.core.procs[0].pending_job, b);

  // Re-assigning to the current holder rescinds the takeaway.
  h.alloc.AssignProcessor(Assignment{.proc = 0, .job = a});
  EXPECT_FALSE(h.core.procs[0].pending_valid);
  EXPECT_EQ(h.core.procs[0].holder, a);
}

TEST(AllocatorProtocolTest, AssignProcessorIgnoresInactiveJob) {
  CoreHarness h;
  const JobId a = h.AddActiveJob(1, Milliseconds(10));
  h.core.job_state(a).active = false;

  h.alloc.AssignProcessor(Assignment{.proc = 0, .job = a});

  EXPECT_EQ(h.core.procs[0].holder, kInvalidJobId);
  EXPECT_FALSE(h.core.procs[0].switching);
}

TEST(AllocatorProtocolTest, ReconcileReleasesHoldersBeforePreempting) {
  CoreHarness h(/*procs=*/3);
  const JobId a = h.AddActiveJob(2, Milliseconds(10));
  const JobId b = h.AddActiveJob(2, Milliseconds(10));
  // a holds all three processors: two running, one holding (only 2 threads).
  h.alloc.StartSwitch(0, a, kNoOwner);
  h.alloc.StartSwitch(1, a, kNoOwner);
  h.alloc.StartSwitch(2, a, kNoOwner);
  RunUntilRunning(h, 0);
  RunUntilRunning(h, 1);
  while (h.core.procs[2].holding == kNoOwner && !h.core.queue.empty()) {
    h.core.queue.RunNext();
  }
  ASSERT_NE(h.core.procs[2].holding, kNoOwner);

  h.alloc.Reconcile(std::map<JobId, size_t>{{a, 1}, {b, 2}});

  // The idle holder went first (free), then one running processor got a
  // pending reassignment; the second running processor stays with a.
  EXPECT_EQ(h.core.procs[2].holder, b) << "released holder reassigned to b";
  const bool p0_pending = h.core.procs[0].pending_valid;
  const bool p1_pending = h.core.procs[1].pending_valid;
  EXPECT_NE(p0_pending, p1_pending) << "exactly one running proc preempted";
  EXPECT_EQ(h.core.EffectiveAllocation(a), 1u);
  EXPECT_EQ(h.core.EffectiveAllocation(b), 2u);
}

TEST(AllocatorProtocolTest, JobCompletionFreesAllItsProcessors) {
  CoreHarness h;
  MetricsRegistry registry;
  h.acct.SetMetrics(&registry);
  const JobId a = h.AddActiveJob(2, Milliseconds(3));
  h.alloc.StartSwitch(0, a, kNoOwner);
  h.alloc.StartSwitch(1, a, kNoOwner);
  Drain(h);

  JobState& js = h.core.job_state(a);
  EXPECT_TRUE(js.job->Finished());
  EXPECT_FALSE(js.active);
  EXPECT_GT(js.job->stats().completion, 0);
  EXPECT_EQ(js.allocation, 0u);
  EXPECT_EQ(h.core.procs[0].holder, kInvalidJobId);
  EXPECT_EQ(h.core.procs[1].holder, kInvalidJobId);
  EXPECT_EQ(h.core.jobs_remaining, 0u);
  EXPECT_TRUE(h.core.active_jobs.empty());
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.job_completions")->value(), 1.0);
}

TEST(AllocatorProtocolTest, StalePendingTowardCompletedJobIsDropped) {
  CoreHarness h;
  const JobId a = h.AddActiveJob(1, Milliseconds(10));
  const JobId b = h.AddActiveJob(1, Milliseconds(10));
  h.alloc.StartSwitch(0, a, kNoOwner);
  RunUntilRunning(h, 0);
  h.alloc.SetPending(0, b, kNoOwner);
  // b completes before the chunk boundary.
  JobState& jb = h.core.job_state(b);
  jb.active = false;

  // Run to the next chunk boundary: the stale reassignment is dropped and a
  // keeps executing.
  const CacheOwner running = h.core.procs[0].running;
  h.core.queue.RunNext();

  EXPECT_FALSE(h.core.procs[0].pending_valid);
  EXPECT_EQ(h.core.procs[0].holder, a);
  EXPECT_EQ(h.core.procs[0].running, running);
}

}  // namespace
}  // namespace affsched
