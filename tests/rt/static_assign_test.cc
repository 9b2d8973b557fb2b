#include "src/rt/static_assign.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cache/footprint.h"

namespace affsched {
namespace {

RtJobInfo Job(JobId id, size_t max_par, double ws = 0.0, double writes = 0.0,
              double deadline = 0.0) {
  RtJobInfo info;
  info.job = id;
  info.max_parallelism = max_par;
  info.working_set_blocks = ws;
  info.shared_write_per_s = writes;
  info.deadline_s = deadline;
  return info;
}

// Flat-machine tier function: same processor or not.
size_t FlatTier(size_t from, size_t to) { return from == to ? 0 : 1; }

TEST(StaticAssignTest, CommunicationMatrixIsDiagonal) {
  const std::vector<RtJobInfo> jobs = {Job(0, 4, 0.0, 100.0), Job(1, 2, 0.0, 50.0)};
  const auto matrix = BuildCommunicationMatrix(jobs);
  ASSERT_EQ(matrix.size(), 2u);
  EXPECT_DOUBLE_EQ(matrix[0][0], 100.0 * 4);
  EXPECT_DOUBLE_EQ(matrix[1][1], 50.0 * 2);
  EXPECT_DOUBLE_EQ(matrix[0][1], 0.0);
  EXPECT_DOUBLE_EQ(matrix[1][0], 0.0);
}

TEST(StaticAssignTest, SpansCoverTheMachineAndStayDisjoint) {
  const std::vector<RtJobInfo> jobs = {Job(0, 16), Job(1, 16), Job(2, 16)};
  const RtAssignment plan = ComputeStaticAssignment(jobs, 8, 0, false, FlatTier);
  ASSERT_EQ(plan.proc_owner.size(), 8u);
  size_t total = 0;
  for (const auto& [job, share] : plan.share) {
    total += share;
  }
  EXPECT_EQ(total, 8u);
  // Every processor is owned (demand exceeds supply) and ownership counts
  // match the planned shares.
  std::map<JobId, size_t> counted;
  for (JobId owner : plan.proc_owner) {
    ASSERT_NE(owner, kInvalidJobId);
    ++counted[owner];
  }
  EXPECT_EQ(counted, plan.share);
}

TEST(StaticAssignTest, DeadlineJobsArePlannedFirst) {
  // Two processors, three hungry jobs: only the two most urgent get one.
  // Job 2 is best-effort with huge communication intensity; urgency must
  // still beat intensity.
  const std::vector<RtJobInfo> jobs = {
      Job(0, 4, 0.0, 0.0, 2.0), Job(1, 4, 0.0, 0.0, 1.0), Job(2, 4, 0.0, 1e9)};
  const RtAssignment plan = ComputeStaticAssignment(jobs, 2, 0, false, FlatTier);
  EXPECT_EQ(plan.share.at(1), 1u);  // earliest deadline seeds first
  EXPECT_EQ(plan.share.at(0), 1u);
  EXPECT_EQ(plan.share.at(2), 0u);
  EXPECT_EQ(plan.proc_owner[0], 1);
  EXPECT_EQ(plan.proc_owner[1], 0);
}

TEST(StaticAssignTest, SpanSizeCappedByParallelism) {
  const std::vector<RtJobInfo> jobs = {Job(7, 2)};
  const RtAssignment plan = ComputeStaticAssignment(jobs, 8, 0, false, FlatTier);
  EXPECT_EQ(plan.share.at(7), 2u);
  EXPECT_EQ(plan.proc_owner[0], 7);
  EXPECT_EQ(plan.proc_owner[1], 7);
  for (size_t p = 2; p < 8; ++p) {
    EXPECT_EQ(plan.proc_owner[p], kInvalidJobId) << p;
  }
}

TEST(StaticAssignTest, SpanGrowsTowardNearestTier) {
  // Processor 2 is one tier from the seed, processors 1 and 3 are two; a span
  // of two must take {0, 2}, not the contiguous {0, 1}.
  const auto tier = [](size_t from, size_t to) -> size_t {
    if (from == to) {
      return 0;
    }
    return (from == 0 && to == 2) || (from == 2 && to == 0) ? 1 : 2;
  };
  const std::vector<RtJobInfo> jobs = {Job(0, 2)};
  const RtAssignment plan = ComputeStaticAssignment(jobs, 4, 0, false, tier);
  EXPECT_EQ(plan.proc_owner[0], 0);
  EXPECT_EQ(plan.proc_owner[2], 0);
  EXPECT_EQ(plan.proc_owner[1], kInvalidJobId);
  EXPECT_EQ(plan.proc_owner[3], kInvalidJobId);
}

TEST(StaticAssignTest, MoreJobsThanColorsWrapOntoSingleColors) {
  const std::vector<RtJobInfo> jobs = {
      Job(0, 1, 0.0, 0.0, 1.0), Job(1, 1, 0.0, 0.0, 2.0), Job(2, 1, 0.0, 0.0, 3.0)};
  const RtAssignment plan = ComputeStaticAssignment(jobs, 4, 2, true, FlatTier);
  // Planning order is ascending deadline, colors assigned round-robin.
  EXPECT_EQ(plan.color_mask.at(0), 0x1ull);
  EXPECT_EQ(plan.color_mask.at(1), 0x2ull);
  EXPECT_EQ(plan.color_mask.at(2), 0x1ull);  // wraps
}

// Hand-computed proportional slices: working sets 3000 vs 1000 over eight
// colors. Both start with one color; job 0's ideal is 8*3000/4000 = 6 so it
// gains five extras, job 1's ideal is 2 so it gains one. Slices are
// contiguous, disjoint, and cover all eight colors.
TEST(StaticAssignTest, FewerJobsGetProportionalContiguousSlices) {
  const std::vector<RtJobInfo> jobs = {
      Job(0, 4, 3000.0, 0.0, 1.0), Job(1, 4, 1000.0, 0.0, 2.0)};
  const RtAssignment plan = ComputeStaticAssignment(jobs, 8, 8, true, FlatTier);
  EXPECT_EQ(plan.color_mask.at(0), FullColorMask(6));         // colors 0-5
  EXPECT_EQ(plan.color_mask.at(1), FullColorMask(2) << 6);    // colors 6-7
  EXPECT_EQ(plan.color_mask.at(0) & plan.color_mask.at(1), 0ull);
  EXPECT_EQ(plan.color_mask.at(0) | plan.color_mask.at(1), FullColorMask(8));
}

TEST(StaticAssignTest, NoColorSlicesWithoutIsolation) {
  const std::vector<RtJobInfo> jobs = {Job(0, 4), Job(1, 4)};
  const RtAssignment plan = ComputeStaticAssignment(jobs, 4, 8, false, FlatTier);
  EXPECT_TRUE(plan.color_mask.empty());
}

TEST(StaticAssignTest, DeterministicForIdenticalInput) {
  const std::vector<RtJobInfo> jobs = {
      Job(3, 4, 900.0, 10.0, 1.5), Job(1, 8, 2000.0, 5.0), Job(2, 2, 100.0, 20.0, 0.5)};
  const RtAssignment a = ComputeStaticAssignment(jobs, 10, 8, true, FlatTier);
  const RtAssignment b = ComputeStaticAssignment(jobs, 10, 8, true, FlatTier);
  EXPECT_EQ(a.proc_owner, b.proc_owner);
  EXPECT_EQ(a.share, b.share);
  EXPECT_EQ(a.color_mask, b.color_mask);
}

TEST(StaticAssignTest, EmptyInputsYieldEmptyPlan) {
  const RtAssignment none = ComputeStaticAssignment({}, 4, 8, true, FlatTier);
  EXPECT_TRUE(none.share.empty());
  const RtAssignment no_procs =
      ComputeStaticAssignment({Job(0, 4)}, 0, 8, true, FlatTier);
  EXPECT_TRUE(no_procs.proc_owner.empty());
}

}  // namespace
}  // namespace affsched
