#include "src/telemetry/sampler.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/engine/engine.h"
#include "src/sched/factory.h"
#include "tests/serve/json_testing.h"

namespace affsched {
namespace {

AppProfile CachelessProfile(std::string name, size_t width, SimDuration work_per_thread) {
  AppProfile profile;
  profile.name = std::move(name);
  profile.working_set = WorkingSetParams{.blocks = 0.0, .buildup_tau_s = 0.01,
                                         .steady_miss_per_s = 0.0};
  profile.thread_overlap = 1.0;
  profile.max_parallelism = width;
  profile.build_graph = [width, work_per_thread](Rng&) {
    auto g = std::make_unique<ThreadGraph>();
    for (size_t i = 0; i < width; ++i) {
      g->AddNode(work_per_thread);
    }
    return g;
  };
  return profile;
}

TEST(Sampler, RecordsOneRowPerSampleInProbeOrder) {
  Sampler sampler(Milliseconds(1));
  double x = 1.0;
  sampler.AddProbe("x", [&] { return x; });
  sampler.AddProbe("twice_x", [&] { return 2.0 * x; });

  sampler.Sample(0);
  x = 5.0;
  sampler.Sample(Milliseconds(1));

  ASSERT_EQ(sampler.num_samples(), 2u);
  ASSERT_EQ(sampler.num_probes(), 2u);
  EXPECT_EQ(sampler.times()[0], 0);
  EXPECT_EQ(sampler.times()[1], Milliseconds(1));
  EXPECT_EQ(sampler.values()[0][0], 1.0);
  EXPECT_EQ(sampler.values()[0][1], 2.0);
  EXPECT_EQ(sampler.values()[1][0], 5.0);
  EXPECT_EQ(sampler.values()[1][1], 10.0);
}

TEST(Sampler, CsvHasHeaderAndOneRowPerSample) {
  Sampler sampler(Milliseconds(1));
  sampler.AddProbe("alloc", [] { return 3.0; });
  sampler.Sample(Microseconds(1500));

  const std::string csv = sampler.ToCsv();
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "t_us,alloc");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1500.000,3");
  EXPECT_FALSE(std::getline(in, line));
}

TEST(Sampler, JsonlRowsAreValidJson) {
  Sampler sampler(Milliseconds(1));
  sampler.AddProbe("util", [] { return 0.5; });
  sampler.Sample(0);
  sampler.Sample(Milliseconds(1));

  std::istringstream in(sampler.ToJsonl());
  std::string line;
  size_t rows = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(ParsesAsJson(line)) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 2u);
}

TEST(Sampler, EngineDrivesSamplingOnCadence) {
  MachineConfig machine;
  machine.num_processors = 2;
  Engine engine(machine, MakePolicy(PolicyKind::kDynamic), 1);
  Sampler sampler(Milliseconds(10));
  engine.SetSampler(&sampler);
  engine.SubmitJob(CachelessProfile("solo", 1, Milliseconds(50)));
  const SimTime end = engine.Run();

  // One sample at t=0 plus one per cadence until completion; the engine stops
  // rescheduling once the last job finishes, so the count is bounded.
  ASSERT_GE(sampler.num_samples(), 2u);
  EXPECT_LE(sampler.num_samples(), static_cast<size_t>(end / Milliseconds(10)) + 2);
  for (size_t i = 1; i < sampler.num_samples(); ++i) {
    EXPECT_EQ(sampler.times()[i] - sampler.times()[i - 1], Milliseconds(10));
  }
  // The per-job allocation probe exists and saw the job running.
  const std::string csv = sampler.ToCsv();
  EXPECT_NE(csv.find("alloc.solo#0"), std::string::npos);
}

TEST(Sampler, SamplingDoesNotPerturbTheRun) {
  MachineConfig machine;
  machine.num_processors = 2;
  auto run = [&](bool with_sampler) {
    Engine engine(machine, MakePolicy(PolicyKind::kDynAff), 7);
    Sampler sampler(Milliseconds(5));
    if (with_sampler) {
      engine.SetSampler(&sampler);
    }
    engine.SubmitJob(CachelessProfile("a", 2, Milliseconds(30)));
    engine.SubmitJob(CachelessProfile("b", 1, Milliseconds(20)));
    return engine.Run();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Sampler, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/sampler_test_out.csv";
  Sampler sampler(Milliseconds(1));
  sampler.AddProbe("v", [] { return 1.0; });
  sampler.Sample(0);
  ASSERT_TRUE(Sampler::WriteFile(path, sampler.ToCsv()));

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), sampler.ToCsv());
  std::remove(path.c_str());
}

TEST(Sampler, WriteFileFailsOnBadPath) {
  EXPECT_FALSE(Sampler::WriteFile("/nonexistent-dir/x/y.csv", "data"));
}

}  // namespace
}  // namespace affsched
