#include "src/runner/heartbeat.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/runner/runner.h"
#include "tests/serve/json_testing.h"

namespace affsched {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// Same tiny grid the sweep-runner tests use: 2 policies x 2 mixes x 2 reps.
SweepSpec TinySpec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.machine.num_processors = 8;
  spec.apps = {MakeSmallMvaProfile(), MakeSmallMatrixProfile(), MakeSmallGravityProfile()};
  spec.policies = {PolicyKind::kEquipartition, PolicyKind::kDynAff};
  spec.mixes = {WorkloadMix{.number = 1, .mva = 2, .matrix = 0, .gravity = 0},
                WorkloadMix{.number = 5, .mva = 0, .matrix = 1, .gravity = 1}};
  spec.replication.min_replications = 2;
  spec.replication.max_replications = 2;
  spec.root_seed = 7;
  return spec;
}

TEST(HeartbeatWriterTest, EmitsOneValidJsonLinePerEvent) {
  const std::string path = ::testing::TempDir() + "/heartbeat_test_out.jsonl";
  {
    HeartbeatWriter hb(path);
    ASSERT_TRUE(hb.ok());
    hb.Start("tiny", 8);
    SweepRoundStats stats;
    stats.round = 1;
    stats.round_cells = 4;
    stats.completed = 4;
    stats.scheduled = 8;
    stats.round_wall_s = 0.5;
    stats.total_wall_s = 0.5;
    stats.round_events = 20000;
    stats.round_deadline_misses = 3;
    hb.OnRound(stats);
    hb.OnProgress(6, 8);
    hb.Finish(8, 1.25);
  }

  const auto lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(ParsesAsJson(line)) << line;
  }
  EXPECT_NE(lines[0].find("\"kind\":\"start\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"tiny\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"cells_min\":8"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"round\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"completed\":4"), std::string::npos);
  EXPECT_NE(lines[1].find("\"events_per_s\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"eta_s\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"deadline_misses\":3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\":\"progress\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"kind\":\"done\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"completed\":8"), std::string::npos);
  std::remove(path.c_str());
}

TEST(HeartbeatWriterTest, UnopenablePathIsInertNotFatal) {
  HeartbeatWriter hb("/nonexistent-affsched-dir/heartbeat.jsonl");
  EXPECT_FALSE(hb.ok());
  // Every call must be a silent no-op.
  hb.Start("x", 1);
  hb.OnRound(SweepRoundStats{});
  hb.OnProgress(0, 1);
  hb.Finish(1, 0.0);
}

TEST(SweepRunnerRoundStatsTest, RoundStatsReportEveryCellAndRealWork) {
  SweepRunnerOptions options;
  options.jobs = 2;
  std::vector<SweepRoundStats> rounds;
  options.round_stats = [&rounds](const SweepRoundStats& stats) { rounds.push_back(stats); };
  SweepRunner(options).Run(TinySpec());

  ASSERT_FALSE(rounds.empty());
  size_t cells = 0;
  uint64_t events = 0;
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, i + 1);  // 1-based, consecutive
    EXPECT_GE(rounds[i].round_wall_s, 0.0);
    EXPECT_GE(rounds[i].total_wall_s, rounds[i].round_wall_s);
    EXPECT_LE(rounds[i].completed, rounds[i].scheduled);
    if (i > 0) {
      EXPECT_GE(rounds[i].completed, rounds[i - 1].completed);
    }
    cells += rounds[i].round_cells;
    events += rounds[i].round_events;
    // The tiny grid stamps no deadlines, so the rt counter must stay zero.
    EXPECT_EQ(rounds[i].round_deadline_misses, 0u);
  }
  EXPECT_EQ(cells, 8u);  // 2 policies x 2 mixes x 2 reps, all reported
  EXPECT_EQ(rounds.back().completed, 8u);
  // The simulation's event count flows through RunResult into the stats.
  EXPECT_GT(events, 0u);
}

}  // namespace
}  // namespace affsched
