// Deterministic mutation test over the three spec grammars (closed sweeps,
// open sweeps, topologies). The corpus is every preset, the override
// examples in README.md and EXPERIMENTS.md, the Figure 6 and Table 4 grids
// (DESIGN.md §5), and specs sitting at the size caps. Each
// mutant is a truncation, a deleted byte, or one byte replaced by a
// character the grammar gives meaning to. Every mutant must either fail with
// a message or parse into a spec the machine accepts with every number
// finite and every size within its cap, so no spelling reaches the engine
// carrying NaN, a half-read value or an allocation that cannot fit.

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "src/opensys/open_sweep.h"
#include "src/runner/sweep.h"
#include "src/topology/topology.h"

namespace affsched {
namespace {

std::set<std::string> Mutants(const std::vector<std::string>& corpus) {
  std::set<std::string> mutants;
  for (const std::string& text : corpus) {
    for (size_t i = 0; i <= text.size(); ++i) {
      mutants.insert(text.substr(0, i));
    }
    for (size_t i = 0; i < text.size(); ++i) {
      mutants.insert(text.substr(0, i) + text.substr(i + 1));
      for (const char c : std::string(";,=-.09ne")) {
        std::string replaced = text;
        replaced[i] = c;
        mutants.insert(replaced);
      }
    }
  }
  return mutants;
}

bool AllFinite(std::initializer_list<double> values) {
  for (const double value : values) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  return true;
}

bool TopologyFinite(const TopologySpec& topology) {
  return AllFinite({topology.llc_hit_factor, topology.remote_multiplier});
}

bool MachineSane(const MachineConfig& machine) {
  return machine.Validate().empty() && TopologyFinite(machine.topology) &&
         AllFinite({machine.processor_speed, machine.cache_size_factor}) &&
         machine.num_processors <= kMaxProcessors;
}

TEST(SpecMutationTest, EveryMutantFailsCleanlyOrParsesToASaneSpec) {
  size_t parsed = 0;
  for (const std::string& text :
       Mutants({"fig5", "table3", "future", "smoke", "mq", "rt", "fig5;reps=2;seed=77",
                "policies=equi,dyn-aff;mixes=1,5;reps=3-5;precision=0.01", "fig5;reps=2",
                "smoke;reps=2", "fig5;observability=1", "smoke;topology=cmp-2x10",
                "fig5;topology=numa-4x8", "smoke;topology=numa-4x8,llc-kb=2048,remote=2.5",
                "mq;steal=sibling", "rt;deadline-mix=tight",
                "fig5;policies=equi,dyn-aff-nopri,dyn-aff;seed=2000",
                "fig5;policies=dyn-aff,dyn-aff-nopri;mixes=1,4;reps=4-8;seed=4000",
                "smoke;reps=1000;procs=4096"})) {
    SweepSpec spec;
    std::string error;
    if (ParseSweepSpec(text, &spec, &error)) {
      ++parsed;
      EXPECT_TRUE(MachineSane(spec.machine)) << text;
      EXPECT_TRUE(AllFinite({spec.replication.relative_precision})) << text;
      EXPECT_LE(spec.replication.max_replications, kMaxReplications) << text;
    } else {
      EXPECT_FALSE(error.empty()) << text;
    }
  }
  for (const std::string& text :
       Mutants({"opensys", "opensys-smoke", "opensys;warmup=mser;burst=8;seed=77",
                "opensys;rhos=0.5,0.9;arrivals=onoff;mpl-cap=6",
                "opensys-smoke;count=1000000;reps=1000;procs=4096"})) {
    OpenSweepSpec spec;
    std::string error;
    if (ParseOpenSweepSpec(text, &spec, &error)) {
      ++parsed;
      EXPECT_TRUE(MachineSane(spec.machine)) << text;
      EXPECT_LE(spec.replications, kMaxReplications) << text;
      EXPECT_LE(spec.jobs_per_cell, kMaxArrivalsPerCell) << text;
      EXPECT_TRUE(AllFinite({spec.onoff_burst_factor, spec.open.warmup_fraction})) << text;
      for (const double rho : spec.rhos) {
        EXPECT_TRUE(rho > 0.0 && rho <= 1.5) << text;
      }
    } else {
      EXPECT_FALSE(error.empty()) << text;
    }
  }
  std::vector<std::string> topologies = {"numa-4x8,remote=2.5",
                                         "numa-4x8,cores-per-cluster=4,clusters-per-node=2",
                                         "numa-4x8,llc-kb=2048,remote=2.5"};
  for (const TopologySpec& preset : TopologyPresets()) {
    topologies.push_back(preset.name);
  }
  for (const std::string& text : Mutants(topologies)) {
    TopologySpec spec;
    std::string error;
    if (ParseTopologySpec(text, &spec, &error)) {
      ++parsed;
      EXPECT_TRUE(TopologyFinite(spec)) << text;
    } else {
      EXPECT_FALSE(error.empty()) << text;
    }
  }
  EXPECT_GT(parsed, 0u);
}

}  // namespace
}  // namespace affsched
