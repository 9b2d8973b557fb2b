#include "src/serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/runner/runner.h"
#include "src/serve/jsonv.h"

namespace affsched {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/service_test_" + name;
  fs::remove_all(dir);
  return dir;
}

// Small profiles so unit-test submissions are fast.
SweepSpec TinySpec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.machine.num_processors = 8;
  spec.apps = {MakeSmallMvaProfile(), MakeSmallMatrixProfile(), MakeSmallGravityProfile()};
  spec.policies = {PolicyKind::kEquipartition, PolicyKind::kDynAff};
  spec.mixes = {WorkloadMix{.number = 1, .mva = 2, .matrix = 0, .gravity = 0}};
  spec.replication.min_replications = 2;
  spec.replication.max_replications = 2;
  spec.root_seed = 7;
  return spec;
}

SweepServiceOptions TinyOptions(const std::string& cache_dir) {
  SweepServiceOptions options;
  options.cache_dir = cache_dir;
  options.jobs = 4;
  options.git_rev = "testrev";  // pinned so entries survive rebuilds of this test
  return options;
}

TEST(SweepServiceTest, SecondSubmissionServesEveryCellFromCache) {
  SweepService service(TinyOptions(FreshDir("twice")));
  ASSERT_TRUE(service.ok()) << service.error();

  SubmitOutcome first, second;
  std::string error;
  ASSERT_TRUE(service.Submit(TinySpec(), {}, &first, &error)) << error;
  EXPECT_EQ(first.cells, 4u);
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(first.executed, 4u);

  ASSERT_TRUE(service.Submit(TinySpec(), {}, &second, &error)) << error;
  EXPECT_EQ(second.cells, 4u);
  EXPECT_EQ(second.hits, 4u);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(first.json, second.json);
  EXPECT_EQ(first.sweep_key, second.sweep_key);

  EXPECT_EQ(service.counters().submits.load(), 2u);
  EXPECT_EQ(service.counters().cache_hits.load(), 4u);
  EXPECT_EQ(service.counters().cells_executed.load(), 4u);

  JsonValue stats;
  ASSERT_TRUE(ParseJson(service.StatsJson(), &stats, &error)) << error;
  EXPECT_EQ(stats.Get("service")->Get("submits")->AsUint64(), 2u);
  EXPECT_EQ(stats.Get("cache")->Get("stores")->AsUint64(), 4u);
}

TEST(SweepServiceTest, ServedDocumentMatchesBatchRunnerByteForByte) {
  SweepService service(TinyOptions(FreshDir("batch")));
  ASSERT_TRUE(service.ok()) << service.error();
  SubmitOutcome outcome;
  std::string error;
  ASSERT_TRUE(service.Submit(TinySpec(), {}, &outcome, &error)) << error;

  SweepRunnerOptions batch_options;
  batch_options.jobs = 4;
  const SweepResult batch = SweepRunner(batch_options).Run(TinySpec());
  EXPECT_EQ(outcome.json, batch.ToJson() + "\n");
}

TEST(SweepServiceTest, ResumesFromPartialCache) {
  const std::string cache_dir = FreshDir("resume");
  SubmitOutcome full;
  std::string error;
  {
    SweepService service(TinyOptions(cache_dir));
    ASSERT_TRUE(service.Submit(TinySpec(), {}, &full, &error)) << error;
  }

  // Simulate a crash that lost two in-flight cells: remove two entries.
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(cache_dir)) {
    entries.push_back(entry.path().string());
  }
  ASSERT_EQ(entries.size(), 4u);
  std::sort(entries.begin(), entries.end());
  fs::remove(entries[0]);
  fs::remove(entries[1]);

  // A fresh service (the restarted daemon) re-simulates only the missing
  // cells and still produces the byte-identical document.
  SweepService service(TinyOptions(cache_dir));
  SubmitOutcome resumed;
  ASSERT_TRUE(service.Submit(TinySpec(), {}, &resumed, &error)) << error;
  EXPECT_EQ(resumed.cells, 4u);
  EXPECT_EQ(resumed.hits, 2u);
  EXPECT_EQ(resumed.executed, 2u);
  EXPECT_EQ(resumed.json, full.json);
}

TEST(SweepServiceTest, EquivalentSpecSpellingsShareCells) {
  const std::string cache_dir = FreshDir("canon");
  SweepService service(TinyOptions(cache_dir));
  SweepSpec a, b;
  std::string error;
  ASSERT_TRUE(ParseSweepSpec("smoke;mixes=1;policies=equi;reps=2;procs=8;speed=2.0", &a, &error))
      << error;
  ASSERT_TRUE(ParseSweepSpec("smoke;mixes=1;policies=equi;reps=2;speed=2;procs=8", &b, &error))
      << error;
  SubmitOutcome first, second;
  ASSERT_TRUE(service.Submit(a, {}, &first, &error)) << error;
  ASSERT_TRUE(service.Submit(b, {}, &second, &error)) << error;
  EXPECT_EQ(first.executed, first.cells);
  EXPECT_EQ(second.hits, second.cells) << "differently-spelled spec missed the cache";
  EXPECT_EQ(first.sweep_key, second.sweep_key);
  // The documents agree on everything but the verbatim spec string, which is
  // provenance by design (the result records what the user typed).
  const size_t pos_a = first.json.find("\"experiments\"");
  const size_t pos_b = second.json.find("\"experiments\"");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_EQ(first.json.substr(pos_a), second.json.substr(pos_b));
}

TEST(SweepServiceTest, StreamsPlannedCellsResultDone) {
  SweepService service(TinyOptions(FreshDir("events")));
  std::vector<std::string> lines;
  SubmitOutcome outcome;
  std::string error;
  ASSERT_TRUE(service.Submit(
      TinySpec(), [&](const std::string& line) { lines.push_back(line); }, &outcome, &error))
      << error;

  ASSERT_GE(lines.size(), 4u);
  size_t cells = 0, sim_cells = 0;
  JsonValue event;
  for (const std::string& line : lines) {
    ASSERT_TRUE(ParseJson(line, &event, &error)) << line << ": " << error;
    const std::string kind = event.Get("event")->string_value;
    if (kind == "cell") {
      ++cells;
      if (event.Get("source")->string_value == "sim") {
        ++sim_cells;
      }
    }
    if (kind == "result") {
      EXPECT_EQ(event.Get("json")->string_value, outcome.json);
      EXPECT_EQ(event.Get("cells")->AsUint64(), outcome.cells);
    }
  }
  JsonValue first_event, last_event;
  ASSERT_TRUE(ParseJson(lines.front(), &first_event, &error));
  ASSERT_TRUE(ParseJson(lines.back(), &last_event, &error));
  EXPECT_EQ(first_event.Get("event")->string_value, "planned");
  EXPECT_EQ(first_event.Get("cells_min")->AsUint64(), 4u);
  EXPECT_EQ(last_event.Get("event")->string_value, "done");
  EXPECT_EQ(cells, outcome.cells);
  EXPECT_EQ(sim_cells, outcome.cells);  // fresh cache: everything simulated

  // Resubmission streams the same cells, now all from cache.
  lines.clear();
  ASSERT_TRUE(service.Submit(
      TinySpec(), [&](const std::string& line) { lines.push_back(line); }, &outcome, &error));
  size_t cached_cells = 0;
  for (const std::string& line : lines) {
    ASSERT_TRUE(ParseJson(line, &event, &error));
    if (event.Get("event")->string_value == "cell" &&
        event.Get("source")->string_value == "cache") {
      ++cached_cells;
    }
  }
  EXPECT_EQ(cached_cells, outcome.cells);
}

TEST(SweepServiceTest, BadCacheDirectoryFailsClosed) {
  SweepServiceOptions options;
  options.cache_dir = "/dev/null/not-a-dir";
  SweepService service(options);
  EXPECT_FALSE(service.ok());
  EXPECT_FALSE(service.error().empty());
}

}  // namespace
}  // namespace affsched
