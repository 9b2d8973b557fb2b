#include "src/engine/dispatcher.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/cache/footprint.h"
#include "src/common/time.h"
#include "tests/engine/core_harness.h"

namespace affsched {
namespace {

// Creates a worker for `id` and parks it on the job's idle list.
CacheOwner MakeIdleWorker(CoreHarness& h, JobId id) {
  const CacheOwner wid = h.core.CreateWorker(id);
  h.dispatcher.ParkWorker(h.core.job_state(id), h.core.worker(wid));
  return wid;
}

TEST(DispatcherTest, ParkWorkerOrdersMostRecentlyIdledFirst) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(2, Milliseconds(10));
  const CacheOwner w1 = MakeIdleWorker(h, id);
  const CacheOwner w2 = MakeIdleWorker(h, id);

  const JobState& js = h.core.job_state(id);
  ASSERT_EQ(js.idle_workers.size(), 2u);
  EXPECT_EQ(js.idle_workers[0], w2);
  EXPECT_EQ(js.idle_workers[1], w1);
  EXPECT_EQ(h.core.worker(w1).state, Worker::State::kIdle);
  EXPECT_EQ(h.core.worker(w1).processor, kNoProcessor);
}

TEST(DispatcherTest, SelectWorkerHonoursPreferredIdleWorker) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(2, Milliseconds(10));
  const CacheOwner w1 = MakeIdleWorker(h, id);
  const CacheOwner w2 = MakeIdleWorker(h, id);

  EXPECT_EQ(h.dispatcher.SelectWorker(id, /*proc=*/0, /*prefer=*/w1), w1);
  const JobState& js = h.core.job_state(id);
  EXPECT_EQ(js.idle_workers.size(), 1u);
  EXPECT_EQ(js.idle_workers[0], w2);
}

TEST(DispatcherTest, SelectWorkerIgnoresPreferenceForBusyWorker) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(2, Milliseconds(10));
  const CacheOwner busy = h.core.CreateWorker(id);
  h.core.worker(busy).state = Worker::State::kRunning;
  const CacheOwner idle = MakeIdleWorker(h, id);

  EXPECT_EQ(h.dispatcher.SelectWorker(id, /*proc=*/0, /*prefer=*/busy), idle);
}

TEST(DispatcherTest, AffinityRuntimePrefersWorkerWithContextOnProcessor) {
  CoreHarness h(/*procs=*/2, /*uses_affinity=*/true);
  const JobId id = h.AddActiveJob(2, Milliseconds(10));
  const CacheOwner affine = h.core.CreateWorker(id);
  h.core.worker(affine).RecordPlacement(1);
  h.dispatcher.ParkWorker(h.core.job_state(id), h.core.worker(affine));
  const CacheOwner fresh = MakeIdleWorker(h, id);

  // `fresh` is most recently idled, but `affine` has its cache context on
  // processor 1 and must win there.
  EXPECT_EQ(h.dispatcher.SelectWorker(id, /*proc=*/1, kNoOwner), affine);
  // On a processor neither remembers, the warmest (most recently idled) wins.
  const JobState& js = h.core.job_state(id);
  ASSERT_EQ(js.idle_workers.size(), 1u);
  EXPECT_EQ(h.dispatcher.SelectWorker(id, /*proc=*/0, kNoOwner), fresh);
}

TEST(DispatcherTest, ObliviousRuntimePicksSomeIdleWorker) {
  CoreHarness h(/*procs=*/2, /*uses_affinity=*/false);
  const JobId id = h.AddActiveJob(4, Milliseconds(10));
  const CacheOwner w1 = MakeIdleWorker(h, id);
  const CacheOwner w2 = MakeIdleWorker(h, id);
  const CacheOwner w3 = MakeIdleWorker(h, id);

  const CacheOwner picked = h.dispatcher.SelectWorker(id, /*proc=*/0, kNoOwner);
  EXPECT_TRUE(picked == w1 || picked == w2 || picked == w3);
  const JobState& js = h.core.job_state(id);
  EXPECT_EQ(js.idle_workers.size(), 2u);
  EXPECT_EQ(std::find(js.idle_workers.begin(), js.idle_workers.end(), picked),
            js.idle_workers.end());
}

TEST(DispatcherTest, SelectWorkerCreatesWhenPoolIsEmpty) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(2, Milliseconds(10));

  const CacheOwner wid = h.dispatcher.SelectWorker(id, /*proc=*/0, kNoOwner);
  ASSERT_TRUE(h.core.HasWorker(wid));
  EXPECT_EQ(h.core.worker(wid).job, id);
  EXPECT_EQ(h.core.worker(wid).state, Worker::State::kIdle);
  EXPECT_TRUE(h.core.job_state(id).idle_workers.empty());
}

TEST(DispatcherTest, DispatchWorkerRunsReadyThreadAndRecordsPlacement) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(1, Milliseconds(1));
  ProcState& ps = h.core.procs[0];
  ps.holder = id;
  h.core.job_state(id).allocation = 1;

  h.dispatcher.DispatchWorker(0);

  ASSERT_NE(ps.running, kNoOwner);
  const Worker& w = h.core.worker(ps.running);
  EXPECT_EQ(w.state, Worker::State::kRunning);
  EXPECT_EQ(w.processor, 0u);
  EXPECT_EQ(w.last_processor(), 0u);
  EXPECT_EQ(h.core.job_state(id).running, 1u);
  EXPECT_EQ(h.core.job_state(id).job->stats().reallocations, 1u);
  // The chunk-completion event is in flight.
  EXPECT_FALSE(h.core.queue.empty());
}

TEST(DispatcherTest, ChunkedExecutionSplitsLongThreads) {
  CoreHarness h;
  // 5 ms of work against a 2 ms chunk quantum: 3 chunks.
  const JobId id = h.AddActiveJob(1, Milliseconds(5));
  ProcState& ps = h.core.procs[0];
  ps.holder = id;
  h.core.job_state(id).allocation = 1;
  MetricsRegistry registry;
  h.acct.SetMetrics(&registry);

  h.dispatcher.DispatchWorker(0);
  while (!h.core.queue.empty()) {
    h.core.queue.RunNext();
  }

  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.chunks")->value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.FindCounter("engine.thread_completions")->value(), 1.0);
  EXPECT_TRUE(h.core.job_state(id).job->Finished());
  // The lone thread's completion finished the job; the processor was freed.
  EXPECT_EQ(ps.holder, kInvalidJobId);
  EXPECT_EQ(ps.running, kNoOwner);
  EXPECT_EQ(h.core.jobs_remaining, 0u);
}

TEST(DispatcherTest, SameWorkerContinuesOntoNextThreadWithoutReallocation) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(2, Milliseconds(1));
  ProcState& ps = h.core.procs[0];
  ps.holder = id;
  h.core.job_state(id).allocation = 1;

  h.dispatcher.DispatchWorker(0);
  while (!h.core.queue.empty()) {
    h.core.queue.RunNext();
  }

  // Both threads ran on the same processor, but only the initial placement
  // counts as a reallocation.
  EXPECT_TRUE(h.core.job_state(id).job->Finished());
  EXPECT_EQ(h.core.job_state(id).job->stats().reallocations, 1u);
}

TEST(DispatcherTest, DispatchWithoutReadyThreadEntersHolding) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(1, Milliseconds(1));
  // Drain the only ready thread so the dispatch finds nothing to run.
  h.core.job_state(id).job->PopReadyThread();
  ProcState& ps = h.core.procs[0];
  ps.holder = id;
  h.core.job_state(id).allocation = 1;

  h.dispatcher.DispatchWorker(0);

  EXPECT_EQ(ps.running, kNoOwner);
  ASSERT_NE(ps.holding, kNoOwner);
  EXPECT_EQ(h.core.worker(ps.holding).state, Worker::State::kHolding);
  // Zero yield delay: the processor is already advertised.
  EXPECT_TRUE(ps.willing);
}

// Runs a lone 10 ms thread writing `shared_write_per_s` to completion and
// returns its worker's footprint and the bus's transfer total.
std::pair<double, double> LoneWorkerFootprintAndTraffic(double shared_write_per_s) {
  CoreHarness h;
  const JobId id = h.AddActiveJob(1, Milliseconds(10));
  JobState& js = h.core.job_state(id);
  js.profile->working_set.blocks = 1000.0;
  js.profile->working_set.shared_write_per_s = shared_write_per_s;
  h.core.procs[0].holder = id;
  js.allocation = 1;
  h.dispatcher.DispatchWorker(0);
  const CacheOwner w = h.core.procs[0].running;
  while (!h.core.queue.empty()) {
    h.core.queue.RunNext();
  }
  EXPECT_TRUE(js.job->Finished());
  // Five 2 ms chunks: the writes accrued, and the writer is marked past them.
  EXPECT_DOUBLE_EQ(js.invalidation_debt, shared_write_per_s * 0.010);
  EXPECT_EQ(h.core.worker(w).settled_debt, js.invalidation_debt);
  return {h.core.machine.processor(0).cache().Resident(w),
          h.core.machine.bus().total_transfers()};
}

// A worker's own shared writes fall due on its siblings only: running chunk
// after chunk, a lone writer is never invalidated by itself.
TEST(DispatcherTest, OwnSharedWritesAreNotOwedBack) {
  const auto [quiet_resident, quiet_traffic] = LoneWorkerFootprintAndTraffic(0.0);
  const auto [writer_resident, writer_traffic] = LoneWorkerFootprintAndTraffic(20'000.0);
  EXPECT_GT(quiet_resident, 0.0);
  EXPECT_EQ(writer_resident, quiet_resident);
  EXPECT_EQ(writer_traffic, quiet_traffic);
}

// Thread completion settles the worker's debt before the turnover, so the
// next thread keeps `thread_overlap` of what the siblings left: (r - D) *
// keep, the order eager invalidations produced, not r * keep - D.
TEST(DispatcherTest, ThreadCompletionSettlesBeforeReplacingOwnerData) {
  CoreHarness h(/*procs=*/2);
  const JobId id = h.AddActiveJob(2, Milliseconds(1));
  JobState& js = h.core.job_state(id);
  js.profile->working_set.blocks = 1000.0;
  js.profile->working_set.shared_write_per_s = 20'000.0;  // 20 blocks a 1 ms chunk
  js.profile->thread_overlap = 0.5;
  h.core.procs[0].holder = id;
  h.core.procs[1].holder = id;
  js.allocation = 2;

  // Each worker runs its thread's one chunk. w2 starts after w1's writes
  // (it owes none of them); w1 owes w2's 20 blocks.
  h.dispatcher.DispatchWorker(0);
  h.dispatcher.DispatchWorker(1);
  const CacheOwner w1 = h.core.procs[0].running;
  FootprintCache& cache = h.core.machine.processor(0).cache();
  cache.SetResident(w1, 600.0);

  while (h.core.worker(w1).current.has_value()) {
    ASSERT_TRUE(h.core.queue.RunNext());
  }
  EXPECT_DOUBLE_EQ(cache.Resident(w1), (600.0 - 20.0) * 0.5);
  EXPECT_EQ(h.core.worker(w1).settled_debt, js.invalidation_debt);
}

}  // namespace
}  // namespace affsched
