#include "src/sched/rt_static.h"

#include <gtest/gtest.h>

#include <map>

#include "src/cache/footprint.h"
#include "src/sched/factory.h"
#include "tests/sched/fake_view.h"

namespace affsched {
namespace {

// FakeSchedView plus the per-job profile facts the rt planner reads.
class RtView : public FakeSchedView {
 public:
  using FakeSchedView::FakeSchedView;

  double WorkingSetBlocks(JobId job) const override { return Lookup(working_set, job); }
  double SharedWriteRate(JobId job) const override { return Lookup(write_rate, job); }
  double DeadlineSeconds(JobId job) const override { return Lookup(deadline, job); }
  size_t NumColors() const override { return colors; }

  std::map<JobId, double> working_set;
  std::map<JobId, double> write_rate;
  std::map<JobId, double> deadline;
  size_t colors = 0;

 private:
  static double Lookup(const std::map<JobId, double>& m, JobId job) {
    auto it = m.find(job);
    return it == m.end() ? 0.0 : it->second;
  }
};

TEST(RtPolicyTest, FactoryRoundTripsBothKinds) {
  for (PolicyKind kind : RtPolicyFamily()) {
    EXPECT_TRUE(IsRtPolicy(kind));
    PolicyKind parsed;
    ASSERT_TRUE(PolicyKindFromName(PolicyKindCliName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
    EXPECT_NE(MakePolicy(kind), nullptr);
  }
  EXPECT_EQ(PolicyKindCliName(PolicyKind::kRtStaticAffinity), "rt-static-affinity");
  EXPECT_EQ(PolicyKindCliName(PolicyKind::kRtColorIso), "rt-color-iso");
  EXPECT_EQ(MakePolicy(PolicyKind::kRtStaticAffinity)->name(), "RT-Static-Affinity");
  EXPECT_EQ(MakePolicy(PolicyKind::kRtColorIso)->name(), "RT-Color-Iso");
  EXPECT_FALSE(IsRtPolicy(PolicyKind::kDynAff));
  EXPECT_FALSE(IsRtPolicy(PolicyKind::kEquipartition));
}

TEST(RtPolicyTest, ArrivalPlansEquipartitionedSpans) {
  RtView view(4);
  const JobId a = view.AddJob({.demand = 4});
  const JobId b = view.AddJob({.demand = 4});
  view.deadline[a] = 1.0;
  view.deadline[b] = 2.0;

  RtStaticPolicy policy;
  EXPECT_TRUE(policy.UsesAffinity());
  const PolicyDecision decision = policy.OnJobArrival(view, b);
  ASSERT_TRUE(decision.targets.has_value());
  EXPECT_EQ(decision.targets->at(a), 2u);
  EXPECT_EQ(decision.targets->at(b), 2u);
  // Earliest deadline seeds first: a owns {0,1}, b owns {2,3}.
  EXPECT_EQ(policy.plan().proc_owner[0], a);
  EXPECT_EQ(policy.plan().proc_owner[1], a);
  EXPECT_EQ(policy.plan().proc_owner[2], b);
  EXPECT_EQ(policy.plan().proc_owner[3], b);
}

TEST(RtPolicyTest, SpanOnlyVariantReservesAllColors) {
  RtView view(4);
  view.colors = 8;
  const JobId a = view.AddJob({.demand = 2});
  view.deadline[a] = 1.0;
  RtStaticPolicy policy;  // rt-static-affinity: no color isolation
  policy.OnJobArrival(view, a);
  EXPECT_EQ(policy.ColorMask(view, a), ~0ull);
}

TEST(RtPolicyTest, ColorIsoCarvesDisjointSlices) {
  RtView view(4);
  view.colors = 8;
  const JobId a = view.AddJob({.demand = 2});
  const JobId b = view.AddJob({.demand = 2});
  view.deadline[a] = 1.0;
  view.deadline[b] = 2.0;
  view.working_set[a] = 3000.0;
  view.working_set[b] = 1000.0;

  RtStaticPolicy policy({.isolate_colors = true});
  policy.OnJobArrival(view, b);
  const uint64_t mask_a = policy.ColorMask(view, a);
  const uint64_t mask_b = policy.ColorMask(view, b);
  EXPECT_NE(mask_a, 0ull);
  EXPECT_NE(mask_b, 0ull);
  EXPECT_EQ(mask_a & mask_b, 0ull);
  EXPECT_EQ((mask_a | mask_b) & ~FullColorMask(8), 0ull);
  // A job the plan does not know falls back to every color.
  EXPECT_EQ(policy.ColorMask(view, 99), ~0ull);
}

TEST(RtPolicyTest, RequestGrantsOnlyInsideOwnSpan) {
  RtView view(4);
  const JobId a = view.AddJob({.demand = 2});
  const JobId b = view.AddJob({.demand = 2});
  view.deadline[a] = 1.0;
  view.deadline[b] = 2.0;
  RtStaticPolicy policy;
  policy.OnJobArrival(view, b);  // plan: a -> {0,1}, b -> {2,3}

  // All processors free: a is offered one of its own, never one of b's.
  const PolicyDecision grant = policy.OnRequest(view, a);
  ASSERT_EQ(grant.assignments.size(), 1u);
  EXPECT_EQ(grant.assignments[0].job, a);
  EXPECT_LT(grant.assignments[0].proc, 2u);

  // With its span fully occupied by itself, a gets nothing more even though
  // b's processors sit free.
  view.procs[0].holder = a;
  view.procs[1].holder = a;
  EXPECT_TRUE(policy.OnRequest(view, a).assignments.empty());
}

TEST(RtPolicyTest, AvailableProcessorReturnsToPlannedOwner) {
  RtView view(4);
  const JobId a = view.AddJob({.demand = 2});
  const JobId b = view.AddJob({.demand = 2});
  view.deadline[a] = 1.0;
  view.deadline[b] = 2.0;
  RtStaticPolicy policy;
  policy.OnJobArrival(view, b);

  // Processor 2 freed: it belongs to b's span and b wants it.
  const PolicyDecision give = policy.OnProcessorAvailable(view, 2);
  ASSERT_EQ(give.assignments.size(), 1u);
  EXPECT_EQ(give.assignments[0].job, b);
  EXPECT_EQ(give.assignments[0].proc, 2u);

  // Without demand the processor stays put rather than migrating.
  view.jobs[b].demand = 0;
  EXPECT_TRUE(policy.OnProcessorAvailable(view, 2).assignments.empty());
}

TEST(RtPolicyTest, DepartureReplansForTheSurvivors) {
  RtView view(4);
  const JobId a = view.AddJob({.demand = 4});
  const JobId b = view.AddJob({.demand = 4});
  view.deadline[a] = 1.0;
  view.deadline[b] = 2.0;
  RtStaticPolicy policy;
  policy.OnJobArrival(view, b);
  ASSERT_EQ(policy.plan().share.at(a), 2u);

  // b departs; the survivor's span widens to the whole machine.
  view.order = {a};
  view.jobs.erase(b);
  const PolicyDecision decision = policy.OnJobDeparture(view, b);
  ASSERT_TRUE(decision.targets.has_value());
  EXPECT_EQ(decision.targets->at(a), 4u);
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(policy.plan().proc_owner[p], a) << p;
  }
}

}  // namespace
}  // namespace affsched
