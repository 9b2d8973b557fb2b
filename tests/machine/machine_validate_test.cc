// MachineConfig::Validate: degenerate configurations fail with a clear error
// before any construction work happens, at every entry point (sweep parsers,
// simctl flags, direct construction).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "src/machine/machine.h"

namespace affsched {
namespace {

TEST(MachineValidateTest, DefaultConfigIsValid) {
  EXPECT_EQ(MachineConfig{}.Validate(), "");
}

TEST(MachineValidateTest, ZeroProcessorsIsRejected) {
  MachineConfig config;
  config.num_processors = 0;
  EXPECT_NE(config.Validate().find("procs=0"), std::string::npos);
}

TEST(MachineValidateTest, ProcessorCountIsBounded) {
  MachineConfig config;
  for (const size_t procs : {kMaxProcessors + 1, size_t{1000000000}}) {
    config.num_processors = procs;
    EXPECT_NE(config.Validate().find("at most 4096 processors"), std::string::npos) << procs;
  }
  for (const size_t procs : {size_t{1024}, kMaxProcessors}) {
    config.num_processors = procs;
    EXPECT_EQ(config.Validate(), "") << procs;
  }
}

TEST(MachineValidateTest, ZeroCapacityCacheLevelsAreRejected) {
  MachineConfig config;
  config.geometry.line_bytes = 0;
  EXPECT_FALSE(config.Validate().empty());

  config = MachineConfig{};
  config.geometry.total_bytes = 0;
  EXPECT_FALSE(config.Validate().empty());

  config = MachineConfig{};
  config.geometry.ways = 0;
  EXPECT_FALSE(config.Validate().empty());

  config = MachineConfig{};
  config.cache_size_factor = 0.0;
  EXPECT_FALSE(config.Validate().empty());

  config = MachineConfig{};
  config.cache_size_factor = std::nan("");
  EXPECT_FALSE(config.Validate().empty());
}

TEST(MachineValidateTest, NonPositiveSpeedIsRejected) {
  MachineConfig config;
  config.processor_speed = 0.0;
  EXPECT_FALSE(config.Validate().empty());
  config.processor_speed = -1.0;
  EXPECT_FALSE(config.Validate().empty());
  config.processor_speed = std::nan("");
  EXPECT_FALSE(config.Validate().empty());
}

TEST(MachineValidateTest, FactorsAreBoundedToAFiniteRange) {
  // Far outside [2^-10, 2^10], scaled durations overflow the integer clock.
  for (const double factor : {1e-300, 1e300, 1.0 / 2048.0, 2048.0,
                              std::numeric_limits<double>::infinity()}) {
    MachineConfig config;
    config.processor_speed = factor;
    EXPECT_NE(config.Validate().find("processor_speed"), std::string::npos) << factor;
    config = MachineConfig{};
    config.cache_size_factor = factor;
    EXPECT_NE(config.Validate().find("cache_size_factor"), std::string::npos) << factor;
  }
  for (const double factor : {1.0 / 1024.0, 64.0, 1024.0}) {
    MachineConfig config;
    config.processor_speed = factor;
    config.cache_size_factor = factor;
    EXPECT_EQ(config.Validate(), "") << factor;
  }
}

TEST(MachineValidateTest, TopologyProblemsSurfaceThroughMachineValidate) {
  MachineConfig config;
  config.topology = CmpTopology();
  config.topology.llc_hit_factor = 0.0;
  EXPECT_NE(config.Validate().find("llc-factor"), std::string::npos);
}

TEST(MachineValidateTest, ColorsNeedAFlatTopology) {
  MachineConfig config;
  config.num_colors = 8;
  EXPECT_EQ(config.Validate(), "");
  config.topology = CmpTopology();
  EXPECT_NE(config.Validate().find("flat topology"), std::string::npos);
  config.num_colors = 0;
  EXPECT_EQ(config.Validate(), "");
}

TEST(MachineValidateTest, ConstructorEnforcesValidation) {
  MachineConfig config;
  config.num_processors = 0;
  EXPECT_DEATH({ Machine machine(config); }, "procs=0");
}

TEST(MachineValidateTest, HierarchicalMachineBuilds) {
  MachineConfig config;
  config.topology = NumaTopology();
  config.num_processors = 32;
  Machine machine(config);
  EXPECT_EQ(machine.topology().num_nodes(), 4u);
  EXPECT_EQ(machine.topology().TierBetween(0, 8), 3u);
}

}  // namespace
}  // namespace affsched
