// Regenerates Figure 6: response times under Dyn-Aff-NoPri relative to
// Equipartition for every job in every mix.
//
// Paper result: in contrast to the well-behaved dynamic policies (Figure 5),
// Dyn-Aff-NoPri's relative response times are *extremely variable* across
// jobs — sacrificing the priority/fairness scheme for affinity lets some jobs
// hoard processors while others starve. This is why the paper calls it an
// artificial policy and eliminates it from consideration.
//
// The grid is the fig5 grid with this figure's policies; the same spec runs
// as `simctl --sweep='<kSpec>'`.

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/common/check.h"
#include "src/common/table.h"
#include "src/runner/runner.h"
#include "src/runner/sweep.h"

using namespace affsched;

namespace {

constexpr const char* kSpec = "fig5;policies=equi,dyn-aff-nopri,dyn-aff;seed=2000";

}  // namespace

int main() {
  SweepSpec spec;
  std::string error;
  AFF_CHECK_MSG(ParseSweepSpec(kSpec, &spec, &error), error.c_str());
  const SweepResult grid = SweepRunner().Run(spec);

  std::printf("=== Figure 6: Dyn-Aff-NoPri relative to Equipartition ===\n\n");

  TextTable table;
  table.SetHeader({"mix", "job", "Equi RT (s)", "Dyn-Aff-NoPri rel."});

  double min_rel = 1e9;
  double max_rel = 0.0;
  double min_rel_fig5 = 1e9;
  double max_rel_fig5 = 0.0;

  for (const WorkloadMix& mix : spec.mixes) {
    const ReplicatedResult& equi = grid.Find(PolicyKind::kEquipartition, mix.number)->replicated;
    const ReplicatedResult& nopri = grid.Find(PolicyKind::kDynAffNoPri, mix.number)->replicated;
    const ReplicatedResult& dynaff = grid.Find(PolicyKind::kDynAff, mix.number)->replicated;
    for (size_t j = 0; j < equi.app.size(); ++j) {
      const double rel = nopri.MeanResponse(j) / equi.MeanResponse(j);
      min_rel = std::min(min_rel, rel);
      max_rel = std::max(max_rel, rel);
      const double rel5 = dynaff.MeanResponse(j) / equi.MeanResponse(j);
      min_rel_fig5 = std::min(min_rel_fig5, rel5);
      max_rel_fig5 = std::max(max_rel_fig5, rel5);
      table.AddRow({mix.Label(), equi.app[j] + " (job " + std::to_string(j) + ")",
                    FormatDouble(equi.MeanResponse(j), 1), FormatDouble(rel, 3)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Dyn-Aff-NoPri relative-RT spread: [%.3f, %.3f] (width %.3f)\n", min_rel, max_rel,
              max_rel - min_rel);
  std::printf("Dyn-Aff       relative-RT spread: [%.3f, %.3f] (width %.3f)\n", min_rel_fig5,
              max_rel_fig5, max_rel_fig5 - min_rel_fig5);
  std::printf(
      "\nShape check vs the paper: without enforced fairness the spread of\n"
      "relative response times is much wider than under Dyn-Aff — some jobs\n"
      "win big by hoarding, others are starved.\n");
  return 0;
}
