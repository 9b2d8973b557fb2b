// Golden-trajectory regression tests for the open-system sweep, schema v2
// JSON byte for byte. Regenerate with
//   simctl --open --out tests/golden/open_smoke_rho700.json
//          --preset "opensys-smoke;policies=equi,dyn-aff;rhos=0.7;count=12"
//   simctl --open --preset=opensys-smoke --out tests/golden/open_smoke_default.json
//   simctl --open --preset='opensys-smoke;mpl-cap=2;max-queue=1'
//          --out tests/golden/open_smoke_shed.json
// and justify the diff in review.

#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "src/opensys/open_sweep.h"

#ifndef AFF_GOLDEN_DIR
#error "AFF_GOLDEN_DIR must point at tests/golden"
#endif

namespace affsched {
namespace {

std::string ReadGolden(const std::string& filename) {
  const std::string path = std::string(AFF_GOLDEN_DIR) + "/" + filename;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void ExpectBytesIdentical(const std::string& actual, const std::string& golden) {
  if (actual == golden) {
    SUCCEED();
    return;
  }
  size_t i = 0;
  while (i < actual.size() && i < golden.size() && actual[i] == golden[i]) {
    ++i;
  }
  const size_t begin = i > 60 ? i - 60 : 0;
  ADD_FAILURE() << "open sweep JSON diverges from golden at byte " << i
                << "\n  golden: ..." << golden.substr(begin, 120)
                << "\n  actual: ..." << actual.substr(begin, 120);
}

TEST(OpenGoldenTest, SmokeRho700) {
  OpenSweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseOpenSweepSpec("opensys-smoke;policies=equi,dyn-aff;rhos=0.7;count=12",
                                 &spec, &error))
      << error;
  OpenSweepRunnerOptions options;
  options.jobs = 2;  // byte-identical at any worker count; exercise >1
  const OpenSweepResult result = OpenSweepRunner(options).Run(spec);
  ExpectBytesIdentical(result.ToJson() + "\n", ReadGolden("open_smoke_rho700.json"));
}

// The whole opensys-smoke preset (both loads, 30 jobs per cell). At rho = 0.8
// caches hold enough owners for the occupancy squeeze to fire, which the
// rho = 0.7 cell above never reaches.
TEST(OpenGoldenTest, SmokeDefault) {
  OpenSweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseOpenSweepSpec("opensys-smoke", &spec, &error)) << error;
  OpenSweepRunnerOptions options;
  options.jobs = 2;
  const OpenSweepResult result = OpenSweepRunner(options).Run(spec);
  ExpectBytesIdentical(result.ToJson() + "\n", ReadGolden("open_smoke_default.json"));
}

// An MPL cap of 2 with a one-slot admission queue: every cell admits, queues
// and rejects arrivals, so this pins all three admission verdicts end to end.
// The two cases above run only the unbounded rule.
TEST(OpenGoldenTest, SmokeMplCapShedding) {
  OpenSweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseOpenSweepSpec("opensys-smoke;mpl-cap=2;max-queue=1", &spec, &error)) << error;
  OpenSweepRunnerOptions options;
  options.jobs = 2;
  const OpenSweepResult result = OpenSweepRunner(options).Run(spec);
  ExpectBytesIdentical(result.ToJson() + "\n", ReadGolden("open_smoke_shed.json"));
}

}  // namespace
}  // namespace affsched
