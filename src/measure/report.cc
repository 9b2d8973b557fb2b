#include "src/measure/report.h"

namespace affsched {

std::vector<std::string> JobReportHeader() {
  return {"policy", "job", "RT (s)", "work (s)", "waste (s)", "#realloc", "%affinity",
          "avg alloc"};
}

namespace {

std::vector<std::string> RowFor(const std::string& policy_label, const std::string& job_name,
                                const JobStats& s, double response_s) {
  return {policy_label,
          job_name,
          FormatDouble(response_s, 1),
          FormatDouble(s.useful_work_s + s.steady_stall_s, 1),
          FormatDouble(s.waste_s, 1),
          std::to_string(s.reallocations),
          FormatPercent(s.AffinityFraction()),
          FormatDouble(s.AverageAllocation(), 2)};
}

}  // namespace

void AppendJobReport(TextTable& table, const std::string& policy_label, const Engine& engine) {
  for (JobId id = 0; id < engine.job_count(); ++id) {
    const JobStats& s = engine.job_stats(id);
    table.AddRow(RowFor(policy_label, engine.job_name(id), s, s.ResponseSeconds()));
  }
}

std::string ComparePolicies(const MachineConfig& machine,
                            const std::vector<PolicyKind>& policies,
                            const std::vector<AppProfile>& jobs, uint64_t seed) {
  TextTable table;
  table.SetHeader(JobReportHeader());
  for (PolicyKind kind : policies) {
    Engine engine(machine, MakePolicy(kind), seed);
    for (const AppProfile& job : jobs) {
      engine.SubmitJob(job);
    }
    engine.Run();
    AppendJobReport(table, PolicyKindName(kind), engine);
  }
  return table.Render();
}

}  // namespace affsched
