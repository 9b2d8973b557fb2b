#include "src/measure/report.h"

#include <cmath>
#include <cstdio>
#include <sstream>

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

MetricsReconciliation ReconcileEngineMetrics(const Engine& engine,
                                             const MetricsRegistry& registry) {
  MetricsReconciliation result;
  std::ostringstream out;

  auto counter = [&](const char* name) -> double {
    const Counter* c = registry.FindCounter(name);
    if (c == nullptr) {
      result.ok = false;
      out << name << ": MISSING from registry\n";
      return 0.0;
    }
    return c->value();
  };
  auto check_exact = [&](const char* label, double metric, double stats) {
    const bool match = metric == stats;
    result.ok = result.ok && match;
    char line[160];
    std::snprintf(line, sizeof(line), "%-24s metric=%.0f stats=%.0f %s\n", label, metric, stats,
                  match ? "OK" : "MISMATCH");
    out << line;
  };
  auto check_close = [&](const char* label, double metric_s, double stats_s) {
    // Both sides accumulate the same addends in different orders; allow only
    // last-ulp-scale drift.
    const double tol = 1e-9 * std::max(1.0, std::fabs(stats_s));
    const bool match = std::fabs(metric_s - stats_s) <= tol;
    result.ok = result.ok && match;
    char line[160];
    std::snprintf(line, sizeof(line), "%-24s metric=%.9f stats=%.9f %s\n", label, metric_s,
                  stats_s, match ? "OK" : "MISMATCH");
    out << line;
  };

  double reallocations = 0.0;
  double affine = 0.0;
  double switch_s = 0.0;
  double reload_stall_s = 0.0;
  double waste_s = 0.0;
  for (JobId id = 0; id < engine.job_count(); ++id) {
    const JobStats& s = engine.job_stats(id);
    reallocations += static_cast<double>(s.reallocations);
    affine += static_cast<double>(s.affinity_dispatches);
    switch_s += s.switch_s;
    reload_stall_s += s.reload_stall_s;
    waste_s += s.waste_s;
  }

  check_exact("reallocations", counter("engine.dispatches"), reallocations);
  check_exact("affinity dispatches", counter("engine.dispatches_affine"), affine);
  check_exact("job completions", counter("engine.job_completions"),
              static_cast<double>(engine.job_count()));
  // Switch time: the counter accumulates the constant per-switch cost in
  // integer nanoseconds, so it must equal switches * cost exactly.
  const double switch_cost_ns = static_cast<double>(engine.machine().config().SwitchCost());
  check_exact("switch time (ns)", counter("engine.switch_time_ns"),
              counter("engine.switches") * switch_cost_ns);
  check_close("switch time (s)", counter("engine.switch_time_ns") / 1e9, switch_s);
  check_close("reload stall (s)", counter("engine.reload_stall_ns") / 1e9, reload_stall_s);
  check_close("waste (s)", counter("engine.waste_ns") / 1e9, waste_s);

  result.report = out.str();
  return result;
}

}  // namespace affsched
