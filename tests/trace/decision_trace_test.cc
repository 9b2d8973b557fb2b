#include "src/trace/decision_trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/apps/apps.h"
#include "src/engine/engine.h"
#include "src/sched/factory.h"
#include "tests/serve/json_testing.h"

namespace affsched {
namespace {

DecisionRecord Rec(uint64_t id, SimTime when = 0) {
  DecisionRecord r;
  r.id = id;
  r.when = when;
  r.site = DecisionSite::kRequest;
  r.reason = DecisionReason::kFreeProcessor;
  r.job = 0;
  r.chosen_proc = 0;
  return r;
}

TEST(DecisionTraceTest, ReasonAndSiteNamesAreNamedAndDistinct) {
  std::set<std::string> reasons;
  for (size_t i = 0; i < kNumDecisionReasons; ++i) {
    const char* name = DecisionReasonName(static_cast<DecisionReason>(i));
    ASSERT_STRNE(name, "unknown") << "reason " << i << " has no name";
    reasons.insert(name);
  }
  EXPECT_EQ(reasons.size(), kNumDecisionReasons);

  std::set<std::string> sites;
  for (size_t i = 0; i < kNumDecisionSites; ++i) {
    sites.insert(DecisionSiteName(static_cast<DecisionSite>(i)));
  }
  EXPECT_EQ(sites.size(), kNumDecisionSites);
}

TEST(DecisionTraceTest, RecordJsonCarriesCandidateBreakdown) {
  DecisionRecord r = Rec(7, Microseconds(1500));
  r.site = DecisionSite::kJobArrival;
  r.reason = DecisionReason::kAffinityReunite;
  r.job = 3;
  r.chosen_proc = 2;
  r.prefer_task = 11;
  DecisionCandidate lost;
  lost.proc = 0;
  lost.tier = 1;
  lost.footprint_blocks = 12.5;
  lost.reload_cost_s = 0.004;
  lost.available = true;
  DecisionCandidate won = lost;
  won.proc = 2;
  won.chosen = true;
  r.candidates = {lost, won};

  const std::string json = r.ToJson();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"t_us\":1500"), std::string::npos);
  EXPECT_NE(json.find("\"site\":\"job_arrival\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"affinity_reunite\""), std::string::npos);
  EXPECT_NE(json.find("\"job\":3"), std::string::npos);
  EXPECT_NE(json.find("\"proc\":2"), std::string::npos);
  EXPECT_NE(json.find("\"prefer_task\":11"), std::string::npos);
  EXPECT_NE(json.find("\"footprint_blocks\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"reload_cost_s\":0.004"), std::string::npos);
  EXPECT_NE(json.find("\"chosen\":true"), std::string::npos);
}

TEST(DecisionTraceTest, UnplacedIndicesSerializeAsMinusOne) {
  DecisionRecord r;  // all defaults: no job, no proc, no preferred task
  const std::string json = r.ToJson();
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  EXPECT_NE(json.find("\"job\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"proc\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"prefer_task\":-1"), std::string::npos);
  EXPECT_EQ(json.find("\"candidates\""), std::string::npos);  // empty = omitted
}

TEST(DecisionTraceTest, RingKeepsNewestAndCountsDropped) {
  DecisionTrace trace(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    trace.Record(Rec(i, Microseconds(static_cast<int64_t>(i))));
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.total_recorded(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto records = trace.Records();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first eviction: the survivors are the newest four, oldest first.
  EXPECT_EQ(records[0].id, 7u);
  EXPECT_EQ(records[1].id, 8u);
  EXPECT_EQ(records[2].id, 9u);
  EXPECT_EQ(records[3].id, 10u);
}

TEST(DecisionTraceTest, JsonlEndsWithDroppedMarkerAcrossMultipleWraps) {
  DecisionTrace trace(3);
  for (uint64_t i = 1; i <= 11; ++i) {  // wraps the capacity-3 ring 3+ times
    trace.Record(Rec(i));
  }
  const std::string jsonl = trace.ToJsonl();
  const std::string tail = "{\"dropped\":8}\n";
  ASSERT_GE(jsonl.size(), tail.size());
  EXPECT_EQ(jsonl.substr(jsonl.size() - tail.size()), tail);
  // Exactly one marker, and only after the retained records.
  EXPECT_EQ(jsonl.find("{\"dropped\""), jsonl.size() - tail.size());
}

TEST(DecisionTraceTest, JsonlWithoutOverflowHasNoMarker) {
  DecisionTrace trace(8);
  trace.Record(Rec(1));
  trace.Record(Rec(2));
  const std::string jsonl = trace.ToJsonl();
  EXPECT_EQ(jsonl.find("\"dropped\""), std::string::npos);
  // One record per line.
  size_t lines = 0;
  for (char c : jsonl) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, 2u);
}

TEST(DecisionTraceTest, EngineStreamsWellFormedDecisions) {
  MachineConfig machine;
  machine.num_processors = 4;
  DecisionTrace trace;
  Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 5);
  engine.SetDecisionSink(&trace);
  engine.SubmitJob(MakeSmallMvaProfile());
  engine.SubmitJob(MakeSmallMatrixProfile());
  engine.Run();

  const auto records = trace.Records();
  ASSERT_GT(records.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  uint64_t last_id = 0;
  SimTime last_when = 0;
  size_t annotated = 0;
  for (const DecisionRecord& r : records) {
    EXPECT_GT(r.id, last_id);  // ids strictly increase
    last_id = r.id;
    EXPECT_GE(r.when, last_when);  // chronological
    last_when = r.when;
    EXPECT_LT(static_cast<size_t>(r.site), kNumDecisionSites);
    EXPECT_LT(static_cast<size_t>(r.reason), kNumDecisionReasons);
    annotated += r.reason != DecisionReason::kUnspecified;
    if (r.chosen_proc != SIZE_MAX && !r.candidates.empty()) {
      // Exactly one candidate is the chosen processor.
      size_t chosen = 0;
      for (const DecisionCandidate& c : r.candidates) {
        if (c.chosen) {
          ++chosen;
          EXPECT_EQ(c.proc, r.chosen_proc);
        }
      }
      EXPECT_EQ(chosen, 1u);
    }
  }
  // The dyn-aff policy annotates its assignments with Section-5 rule codes.
  EXPECT_GT(annotated, 0u);
}

TEST(DecisionTraceTest, NoSinkRunMatchesSinkedRunByteForByte) {
  // The decision sink must observe, never perturb: an instrumented run and a
  // bare run must produce identical simulations.
  auto run = [](DecisionSink* sink) {
    MachineConfig machine;
    machine.num_processors = 4;
    Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 5);
    if (sink != nullptr) {
      engine.SetDecisionSink(sink);
    }
    engine.SubmitJob(MakeSmallGravityProfile());
    engine.SubmitJob(MakeSmallMvaProfile());
    return engine.Run();
  };
  DecisionTrace trace;
  EXPECT_EQ(run(nullptr), run(&trace));
  EXPECT_GT(trace.total_recorded(), 0u);
}

}  // namespace
}  // namespace affsched
