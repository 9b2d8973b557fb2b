#include "src/telemetry/chrome_trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/apps/apps.h"
#include "src/engine/engine.h"
#include "src/sched/factory.h"
#include "tests/serve/json_testing.h"

namespace affsched {
namespace {

// Counts occurrences of `needle` in `haystack`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

std::vector<TraceEvent> TinyFixtureTrace() {
  return {
      {0, TraceEventKind::kJobArrival, SIZE_MAX, 0, kNoOwner, false},
      {Microseconds(10), TraceEventKind::kSwitchStart, 0, 0, 1, false},
      {Microseconds(760), TraceEventKind::kDispatch, 0, 0, 1, false},
      {Microseconds(2000), TraceEventKind::kThreadComplete, 0, 0, 1, false},
      {Microseconds(2000), TraceEventKind::kRelease, 0, 0, 1, false},
      {Microseconds(2000), TraceEventKind::kJobCompletion, SIZE_MAX, 0, kNoOwner, false},
  };
}

// Golden file for the tiny fixture: pins the exact serialisation (metadata
// tracks, span begin/end, allocation counter replay). Any intentional format
// change must update this string.
constexpr const char* kTinyFixtureGolden =
    R"({"displayTimeUnit":"ms","traceEvents":[)"
    R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"processors"}},)"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"cpu0"}},)"
    R"({"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"jobs"}},)"
    R"({"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"solo#0"}},)"
    R"({"name":"solo#0","cat":"job","ph":"B","ts":0,"pid":2,"tid":0},)"
    R"({"name":"alloc solo#0","ph":"C","ts":0,"pid":2,"tid":0,"args":{"procs":0}},)"
    R"({"name":"switch","cat":"switch","ph":"B","ts":10,"pid":1,"tid":0},)"
    R"({"name":"alloc solo#0","ph":"C","ts":10,"pid":2,"tid":0,"args":{"procs":1}},)"
    R"({"ph":"E","ts":760,"pid":1,"tid":0},)"
    R"({"name":"solo#0","cat":"run","ph":"B","ts":760,"pid":1,"tid":0},)"
    R"({"name":"thread done solo#0","cat":"thread","ph":"i","s":"t","ts":2000,"pid":1,"tid":0},)"
    R"({"ph":"E","ts":2000,"pid":1,"tid":0},)"
    R"({"name":"alloc solo#0","ph":"C","ts":2000,"pid":2,"tid":0,"args":{"procs":0}},)"
    R"({"ph":"E","ts":2000,"pid":2,"tid":0},)"
    R"({"name":"alloc solo#0","ph":"C","ts":2000,"pid":2,"tid":0,"args":{"procs":0}}]})";

TEST(ChromeTraceWriter, TinyFixtureMatchesGolden) {
  ChromeTraceWriter writer;
  writer.AddEvents(TinyFixtureTrace());
  EXPECT_EQ(writer.ToJson(1, {"solo"}), kTinyFixtureGolden);
}

TEST(ChromeTraceWriter, GoldenIsValidJson) {
  EXPECT_TRUE(ParsesAsJson(kTinyFixtureGolden));
}

TEST(ChromeTraceWriter, EmptyTraceIsValidJson) {
  ChromeTraceWriter writer;
  const std::string json = writer.ToJson(2, {});
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  // Metadata for processor tracks is still present.
  EXPECT_NE(json.find("\"processors\""), std::string::npos);
}

TEST(ChromeTraceWriter, FullEngineRunProducesBalancedSpans) {
  MachineConfig machine;
  machine.num_processors = 4;
  ChromeTraceWriter writer;
  Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 42);
  engine.SetTraceSink(&writer);
  engine.SubmitJob(MakeSmallMvaProfile());
  engine.SubmitJob(MakeSmallGravityProfile());
  engine.Run();

  std::vector<std::string> names;
  for (JobId id = 0; id < engine.job_count(); ++id) {
    names.push_back(engine.job_name(id));
  }
  const std::string json = writer.ToJson(machine.num_processors, names);
  EXPECT_TRUE(ParsesAsJson(json)) << "chrome trace output is not valid JSON";
  // Every "B" needs a matching "E"; the writer closes dangling spans itself.
  EXPECT_EQ(CountOf(json, "\"ph\":\"B\""), CountOf(json, "\"ph\":\"E\""));
  // Both process groups and at least one span per kind of track exist.
  EXPECT_GT(CountOf(json, "\"pid\":1"), 0u);
  EXPECT_GT(CountOf(json, "\"pid\":2"), 0u);
  EXPECT_GT(CountOf(json, "\"cat\":\"run\""), 0u);
  EXPECT_GT(CountOf(json, "\"cat\":\"switch\""), 0u);
}

TEST(ChromeTraceWriter, RecordAndAddEventsAgree) {
  ChromeTraceWriter recorded;
  ChromeTraceWriter bulk;
  const std::vector<TraceEvent> events = TinyFixtureTrace();
  for (const TraceEvent& e : events) {
    recorded.Record(e);
  }
  bulk.AddEvents(events);
  EXPECT_EQ(recorded.size(), bulk.size());
  EXPECT_EQ(recorded.ToJson(1, {"solo"}), bulk.ToJson(1, {"solo"}));
}

TEST(ChromeTraceWriter, AttachedDecisionJoinsFlowToDispatch) {
  ChromeTraceWriter writer;
  writer.AddEvents(TinyFixtureTrace());

  // One decision placing job 0 on processor 0, made before the fixture's
  // dispatch at ts=760: the writer must join them with an s/f flow pair.
  DecisionRecord decision;
  decision.id = 41;
  decision.when = Microseconds(10);
  decision.site = DecisionSite::kRequest;
  decision.reason = DecisionReason::kFreeProcessor;
  decision.job = 0;
  decision.chosen_proc = 0;
  DecisionCandidate c;
  c.proc = 0;
  c.available = true;
  c.chosen = true;
  c.reload_cost_s = 0.002;
  c.footprint_blocks = 3;
  decision.candidates = {c};
  const std::vector<DecisionRecord> decisions = {decision};
  writer.AttachDecisions(&decisions);

  const std::string json = writer.ToJson(1, {"solo"});
  EXPECT_TRUE(ParsesAsJson(json)) << json;
  // pid-3 scheduler process with a per-processor decide track.
  EXPECT_NE(json.find("\"scheduler\""), std::string::npos);
  EXPECT_NE(json.find("\"decide cpu0\""), std::string::npos);
  // The decision slice carries the reason name and score breakdown.
  EXPECT_NE(json.find("\"free_processor\""), std::string::npos);
  EXPECT_NE(json.find("\"reload_cost_s\":0.002"), std::string::npos);
  // Flow start at the decision, flow finish (bp "e") at the dispatch.
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":41,\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":41,\"ts\":760"), std::string::npos);
  // Detaching restores the plain golden output byte for byte.
  writer.AttachDecisions(nullptr);
  EXPECT_EQ(writer.ToJson(1, {"solo"}), kTinyFixtureGolden);
}

TEST(ChromeTraceWriter, FullEngineRunWithProvenanceStaysBalanced) {
  MachineConfig machine;
  machine.num_processors = 4;
  ChromeTraceWriter writer;
  DecisionTrace decisions;
  JobSpanCollector spans;
  Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 42);
  engine.SetTraceSink(&writer);
  engine.SetDecisionSink(&decisions);
  engine.SetSpanCollector(&spans);
  engine.SubmitJob(MakeSmallMvaProfile());
  engine.SubmitJob(MakeSmallGravityProfile());
  engine.Run();

  std::vector<std::string> names;
  for (JobId id = 0; id < engine.job_count(); ++id) {
    names.push_back(engine.job_name(id));
  }
  const std::vector<DecisionRecord> records = decisions.Records();
  ASSERT_GT(records.size(), 0u);
  writer.AttachDecisions(&records);
  writer.AttachLifecycles(&spans);

  const std::string json = writer.ToJson(machine.num_processors, names);
  EXPECT_TRUE(ParsesAsJson(json)) << "provenance trace output is not valid JSON";
  // The extra layers must not disturb the span balance.
  EXPECT_EQ(CountOf(json, "\"ph\":\"B\""), CountOf(json, "\"ph\":\"E\""));
  // One decision slice and one flow start per record with a placed processor.
  size_t placed = 0;
  for (const DecisionRecord& r : records) {
    placed += r.chosen_proc < machine.num_processors;
  }
  ASSERT_GT(placed, 0u);
  EXPECT_EQ(CountOf(json, "\"cat\":\"decision\",\"ph\":\"X\""), placed);
  EXPECT_EQ(CountOf(json, "\"ph\":\"s\""), placed);
  // Every flow finish consumes a start; a few starts may dangle (decisions
  // whose dispatch falls outside the recorded window), never the reverse.
  const size_t finishes = CountOf(json, "\"ph\":\"f\"");
  EXPECT_GT(finishes, 0u);
  EXPECT_LE(finishes, placed);
}

TEST(ChromeTraceWriter, WriteJsonFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/chrome_trace_test_out.json";
  ChromeTraceWriter writer;
  writer.AddEvents(TinyFixtureTrace());
  ASSERT_TRUE(writer.WriteJsonFile(path, 1, {"solo"}));

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), writer.ToJson(1, {"solo"}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace affsched
