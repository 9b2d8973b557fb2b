// Shared per-job reporting for benches and examples: renders an engine's job
// statistics as the standard columns used throughout the experiment suite.

#ifndef SRC_MEASURE_REPORT_H_
#define SRC_MEASURE_REPORT_H_

#include <string>

#include "src/common/table.h"
#include "src/engine/engine.h"
#include "src/sched/factory.h"

namespace affsched {

// Column layout shared by the report helpers:
//   policy | job | RT (s) | work (s) | waste (s) | #realloc | %affinity | avg alloc
std::vector<std::string> JobReportHeader();

// One row per job from a finished engine.
void AppendJobReport(TextTable& table, const std::string& policy_label, const Engine& engine);

// Convenience: run `jobs` once under each policy and render the whole table.
std::string ComparePolicies(const MachineConfig& machine,
                            const std::vector<PolicyKind>& policies,
                            const std::vector<AppProfile>& jobs, uint64_t seed);

}  // namespace affsched

#endif  // SRC_MEASURE_REPORT_H_
