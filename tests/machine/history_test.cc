// Affinity history mechanics: per-processor task history (depth T) and
// per-worker processor history (depth P).

#include <gtest/gtest.h>

#include "src/cache/footprint.h"
#include "src/machine/machine.h"
#include "src/workload/worker.h"

namespace affsched {
namespace {

TEST(ProcessorHistoryTest, DepthOneKeepsOnlyMostRecent) {
  Processor p(FootprintCache(4096.0, 2), 1);
  p.RecordDispatch(10);
  p.RecordDispatch(20);
  EXPECT_EQ(p.last_task(), 20u);
  EXPECT_EQ(p.recent_tasks().size(), 1u);
}

TEST(ProcessorHistoryTest, DeeperHistoryRemembersOrder) {
  Processor p(FootprintCache(4096.0, 2), 3);
  p.RecordDispatch(1);
  p.RecordDispatch(2);
  p.RecordDispatch(3);
  p.RecordDispatch(4);  // evicts 1
  ASSERT_EQ(p.recent_tasks().size(), 3u);
  EXPECT_EQ(p.recent_tasks()[0], 4u);
  EXPECT_EQ(p.recent_tasks()[1], 3u);
  EXPECT_EQ(p.recent_tasks()[2], 2u);
}

TEST(ProcessorHistoryTest, RedispatchMovesToFront) {
  Processor p(FootprintCache(4096.0, 2), 3);
  p.RecordDispatch(1);
  p.RecordDispatch(2);
  p.RecordDispatch(1);
  ASSERT_EQ(p.recent_tasks().size(), 2u);
  EXPECT_EQ(p.recent_tasks()[0], 1u);
  EXPECT_EQ(p.recent_tasks()[1], 2u);
}

TEST(ProcessorHistoryTest, EmptyHistoryReportsNoOwner) {
  Processor p(FootprintCache(4096.0, 2), 2);
  EXPECT_EQ(p.last_task(), kNoOwner);
  EXPECT_TRUE(p.recent_tasks().empty());
}

TEST(WorkerHistoryTest, DepthOneMatchesPaperSemantics) {
  Worker w;
  w.history_depth = 1;
  EXPECT_EQ(w.last_processor(), kNoProcessor);
  EXPECT_FALSE(w.HasAffinityFor(3));
  w.RecordPlacement(3);
  EXPECT_TRUE(w.HasAffinityFor(3));
  w.RecordPlacement(5);
  EXPECT_FALSE(w.HasAffinityFor(3));  // forgotten
  EXPECT_TRUE(w.HasAffinityFor(5));
  EXPECT_EQ(w.last_processor(), 5u);
}

TEST(WorkerHistoryTest, DeeperHistoryWidensAffinity) {
  Worker w;
  w.history_depth = 3;
  w.RecordPlacement(1);
  w.RecordPlacement(2);
  w.RecordPlacement(3);
  EXPECT_TRUE(w.HasAffinityFor(1));
  EXPECT_TRUE(w.HasAffinityFor(2));
  EXPECT_TRUE(w.HasAffinityFor(3));
  EXPECT_FALSE(w.HasAffinityFor(4));
  // Strict most-recent is still processor 3.
  EXPECT_TRUE(w.MostRecentProcessorIs(3));
  EXPECT_FALSE(w.MostRecentProcessorIs(1));
  w.RecordPlacement(4);  // evicts 1
  EXPECT_FALSE(w.HasAffinityFor(1));
}

TEST(WorkerHistoryTest, ReplacementRefreshesRecency) {
  Worker w;
  w.history_depth = 2;
  w.RecordPlacement(7);
  w.RecordPlacement(8);
  w.RecordPlacement(7);  // 7 back to front
  EXPECT_EQ(w.last_processor(), 7u);
  w.RecordPlacement(9);  // evicts 8
  EXPECT_TRUE(w.HasAffinityFor(7));
  EXPECT_FALSE(w.HasAffinityFor(8));
}

TEST(MachineHistoryTest, ConfigDepthPropagates) {
  MachineConfig config;
  config.num_processors = 2;
  config.task_history_depth = 4;
  Machine machine(config);
  for (CacheOwner t = 1; t <= 5; ++t) {
    machine.processor(0).RecordDispatch(t);
  }
  EXPECT_EQ(machine.processor(0).recent_tasks().size(), 4u);
  EXPECT_EQ(machine.processor(0).last_task(), 5u);
}

}  // namespace
}  // namespace affsched
