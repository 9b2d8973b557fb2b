#include "src/trace/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/apps/apps.h"
#include "src/engine/engine.h"
#include "src/sched/factory.h"

namespace affsched {
namespace {

TraceEvent Ev(SimTime when, TraceEventKind kind, size_t proc = 0, JobId job = 0) {
  return TraceEvent{.when = when, .kind = kind, .proc = proc, .job = job};
}

TEST(RingTraceTest, RecordsInOrder) {
  RingTrace trace(16);
  trace.Record(Ev(1, TraceEventKind::kDispatch));
  trace.Record(Ev(2, TraceEventKind::kPreempt));
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].when, 1);
  EXPECT_EQ(events[1].kind, TraceEventKind::kPreempt);
}

TEST(RingTraceTest, RingDropsOldest) {
  RingTrace trace(4);
  for (SimTime t = 0; t < 10; ++t) {
    trace.Record(Ev(t, TraceEventKind::kDispatch));
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.total_recorded(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().when, 6);
  EXPECT_EQ(events.back().when, 9);
}

TEST(RingTraceTest, KindNamesAreDistinct) {
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kDispatch), "dispatch");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kYield), "yield");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kJobCompletion), "job_completion");
}

TEST(RingTraceTest, CsvHasHeaderAndRows) {
  RingTrace trace(8);
  trace.Record(Ev(Microseconds(750), TraceEventKind::kSwitchStart, 3, 1));
  const std::string csv = trace.ToCsv();
  EXPECT_NE(csv.find("time_us,kind,proc,job,worker,affine"), std::string::npos);
  EXPECT_NE(csv.find("750.000,switch_start,3,1"), std::string::npos);
  // No events were dropped, so no truncation marker.
  EXPECT_EQ(csv.find("# dropped="), std::string::npos);
}

TEST(RingTraceTest, CsvMarksDroppedEventsOnOverflow) {
  RingTrace trace(4);
  for (SimTime t = 0; t < 10; ++t) {
    trace.Record(Ev(t, TraceEventKind::kDispatch));
  }
  const std::string csv = trace.ToCsv();
  // Header first, truncation marker as the final line.
  EXPECT_EQ(csv.rfind("time_us,kind,proc,job,worker,affine\n", 0), 0u);
  const std::string tail = "# dropped=6\n";
  ASSERT_GE(csv.size(), tail.size());
  EXPECT_EQ(csv.substr(csv.size() - tail.size()), tail);
}

TEST(RingTraceTest, CsvDroppedTrailerStaysExactAcrossMultipleWraps) {
  RingTrace trace(4);
  for (SimTime t = 0; t < 13; ++t) {  // wraps the capacity-4 ring three times
    trace.Record(Ev(t, TraceEventKind::kDispatch));
  }
  EXPECT_EQ(trace.dropped(), 9u);
  const std::string csv = trace.ToCsv();
  const std::string tail = "# dropped=9\n";
  ASSERT_GE(csv.size(), tail.size());
  EXPECT_EQ(csv.substr(csv.size() - tail.size()), tail);
  // Exactly one marker in the whole document.
  EXPECT_EQ(csv.find("# dropped="), csv.rfind("# dropped="));
}

TEST(RingTraceTest, OverflowEvictsOldestFirstAtEveryFillLevel) {
  // Eviction must always discard the oldest event, whether the ring has
  // wrapped once or many times over.
  for (SimTime total : {5, 7, 12, 23}) {
    RingTrace trace(4);
    for (SimTime t = 0; t < total; ++t) {
      trace.Record(Ev(t, TraceEventKind::kDispatch));
    }
    const auto events = trace.Events();
    ASSERT_EQ(events.size(), 4u) << "total=" << total;
    for (SimTime i = 0; i < 4; ++i) {
      EXPECT_EQ(events[static_cast<size_t>(i)].when, total - 4 + i) << "total=" << total;
    }
  }
}

TEST(RingTraceTest, EveryKindHasADistinctName) {
  std::set<std::string> names;
  for (size_t i = 0; i < kNumTraceEventKinds; ++i) {
    const char* name = TraceEventKindName(static_cast<TraceEventKind>(i));
    ASSERT_STRNE(name, "unknown") << "kind " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << "kind " << i << " reuses the name " << name;
  }
}

TEST(RingTraceTest, GanttShowsOccupancy) {
  RingTrace trace(64);
  trace.Record(Ev(0, TraceEventKind::kDispatch, 0, 1));
  trace.Record(Ev(Milliseconds(50), TraceEventKind::kPreempt, 0, 1));
  const std::string gantt = trace.RenderGantt(2, 0, Milliseconds(100), 10);
  // Processor 0 runs job 1 for the first half, then goes free.
  EXPECT_NE(gantt.find("p00 11111....."), std::string::npos);
  EXPECT_NE(gantt.find("p01 .........."), std::string::npos);
}

TEST(RingTraceTest, GanttOnEmptyTraceShowsAllFree) {
  RingTrace trace(8);
  const std::string gantt = trace.RenderGantt(2, 0, Milliseconds(10), 10);
  EXPECT_NE(gantt.find("p00 .........."), std::string::npos);
  EXPECT_NE(gantt.find("p01 .........."), std::string::npos);
}

TEST(RingTraceTest, GanttWithSingleEventFillsToWindowEnd) {
  RingTrace trace(8);
  trace.Record(Ev(0, TraceEventKind::kDispatch, 0, 2));
  const std::string gantt = trace.RenderGantt(1, 0, Milliseconds(10), 10);
  EXPECT_NE(gantt.find("p00 2222222222"), std::string::npos);
}

TEST(RingTraceTest, GanttWindowOutsideRecordedRangeIsAllFree) {
  RingTrace trace(8);
  trace.Record(Ev(Milliseconds(1), TraceEventKind::kDispatch, 0, 1));
  trace.Record(Ev(Milliseconds(2), TraceEventKind::kPreempt, 0, 1));
  // Window entirely after the recorded events: events before `start` are
  // skipped and the processor renders as free.
  const std::string gantt = trace.RenderGantt(1, Milliseconds(50), Milliseconds(60), 10);
  EXPECT_NE(gantt.find("p00 .........."), std::string::npos);
}

TEST(RingTraceTest, GanttIgnoresProcessorsBeyondRowCount) {
  RingTrace trace(8);
  trace.Record(Ev(0, TraceEventKind::kDispatch, 7, 1));  // proc outside grid
  const std::string gantt = trace.RenderGantt(2, 0, Milliseconds(10), 10);
  EXPECT_NE(gantt.find("p00 .........."), std::string::npos);
  EXPECT_NE(gantt.find("p01 .........."), std::string::npos);
}

TEST(EngineTraceTest, EngineEmitsLifecycleEvents) {
  MachineConfig machine;
  machine.num_processors = 4;
  RingTrace trace;
  Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 5);
  engine.SetTraceSink(&trace);
  engine.SubmitJob(MakeSmallMvaProfile());
  engine.SubmitJob(MakeSmallMatrixProfile());
  engine.Run();

  size_t arrivals = 0;
  size_t completions = 0;
  size_t dispatches = 0;
  size_t switches = 0;
  size_t thread_completions = 0;
  SimTime last = 0;
  for (const TraceEvent& e : trace.Events()) {
    EXPECT_GE(e.when, last);  // chronological
    last = e.when;
    switch (e.kind) {
      case TraceEventKind::kJobArrival:
        ++arrivals;
        break;
      case TraceEventKind::kJobCompletion:
        ++completions;
        break;
      case TraceEventKind::kDispatch:
        ++dispatches;
        break;
      case TraceEventKind::kSwitchStart:
        ++switches;
        break;
      case TraceEventKind::kThreadComplete:
        ++thread_completions;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(arrivals, 2u);
  EXPECT_EQ(completions, 2u);
  EXPECT_GT(dispatches, 0u);
  // Every dispatch is preceded by a switch (path-length cost).
  EXPECT_EQ(dispatches, switches);
  // All user-level threads completed: 36 MVA nodes + 12 MATRIX threads.
  EXPECT_EQ(thread_completions, 48u);
}

TEST(EngineTraceTest, DispatchAffinityFlagMatchesStats) {
  MachineConfig machine;
  machine.num_processors = 4;
  RingTrace trace;
  Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 5);
  engine.SetTraceSink(&trace);
  engine.SubmitJob(MakeSmallGravityProfile());
  engine.SubmitJob(MakeSmallGravityProfile());
  engine.Run();

  uint64_t affine_events = 0;
  uint64_t dispatch_events = 0;
  for (const TraceEvent& e : trace.Events()) {
    if (e.kind == TraceEventKind::kDispatch) {
      ++dispatch_events;
      if (e.affine) {
        ++affine_events;
      }
    }
  }
  uint64_t affine_stats = 0;
  uint64_t realloc_stats = 0;
  for (JobId id = 0; id < engine.job_count(); ++id) {
    affine_stats += engine.job_stats(id).affinity_dispatches;
    realloc_stats += engine.job_stats(id).reallocations;
  }
  EXPECT_EQ(affine_events, affine_stats);
  EXPECT_EQ(dispatch_events, realloc_stats);
}

TEST(EngineTraceTest, NoSinkMeansNoCrash) {
  MachineConfig machine;
  machine.num_processors = 2;
  Engine engine(machine, MakePolicy(PolicyKind::kDynamic), 5);
  engine.SubmitJob(MakeSmallMatrixProfile());
  EXPECT_GT(engine.Run(), 0);
}

}  // namespace
}  // namespace affsched
