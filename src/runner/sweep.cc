#include "src/runner/sweep.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "src/apps/apps.h"
#include "src/common/check.h"
#include "src/common/time.h"
#include "src/runner/cell_seed.h"
#include "src/telemetry/json.h"
#include "src/telemetry/sampler.h"

namespace affsched {

size_t SweepSpec::MinCells() const {
  return policies.size() * mixes.size() * replication.min_replications;
}

namespace {

SweepSpec BaseSpec() {
  SweepSpec spec;
  spec.machine = PaperMachineConfig();
  spec.apps = DefaultProfiles();
  return spec;
}

std::vector<PolicyKind> EquiPlusDynamicFamily() {
  std::vector<PolicyKind> policies = {PolicyKind::kEquipartition};
  for (PolicyKind kind : DynamicFamily()) {
    policies.push_back(kind);
  }
  return policies;
}

std::vector<WorkloadMix> AllMixes() {
  const auto mixes = PaperMixes();
  return std::vector<WorkloadMix>(mixes.begin(), mixes.end());
}

}  // namespace

SweepSpec Fig5Spec() {
  SweepSpec spec = BaseSpec();
  spec.name = "fig5";
  spec.policies = EquiPlusDynamicFamily();
  spec.mixes = AllMixes();
  spec.replication.min_replications = 3;
  spec.replication.max_replications = 5;
  spec.root_seed = 1000;
  return spec;
}

SweepSpec Table3Spec() {
  SweepSpec spec = BaseSpec();
  spec.name = "table3";
  spec.policies = DynamicFamily();
  spec.mixes = {PaperMixes()[4]};  // workload #5: 1 MATRIX + 1 GRAVITY
  spec.replication.min_replications = 3;
  spec.replication.max_replications = 5;
  spec.root_seed = 555;
  return spec;
}

SweepSpec FutureSpec() {
  SweepSpec spec = BaseSpec();
  spec.name = "future";
  spec.policies = EquiPlusDynamicFamily();
  spec.mixes = AllMixes();
  spec.replication.min_replications = 3;
  spec.replication.max_replications = 4;
  spec.root_seed = 8000;
  return spec;
}

SweepSpec SmokeSpec() {
  SweepSpec spec = BaseSpec();
  spec.name = "smoke";
  spec.policies = {PolicyKind::kEquipartition, PolicyKind::kDynamic, PolicyKind::kDynAff};
  spec.mixes = {PaperMixes()[0], PaperMixes()[4]};
  spec.replication.min_replications = 2;
  spec.replication.max_replications = 2;
  spec.root_seed = 1000;
  return spec;
}

SweepSpec MqSpec() {
  SweepSpec spec = BaseSpec();
  spec.name = "mq";
  spec.policies = {PolicyKind::kEquipartition};
  for (PolicyKind kind : MqPolicyFamily()) {
    spec.policies.push_back(kind);
  }
  spec.mixes = {PaperMixes()[0], PaperMixes()[4]};
  spec.replication.min_replications = 2;
  spec.replication.max_replications = 2;
  spec.root_seed = 1000;
  // 16 procs as 4-core clusters, 2 clusters per node: distance tiers 1, 2
  // and 3 are all distinct, so every steal radius behaves differently.
  std::string topo_error;
  AFF_CHECK_MSG(ParseTopologySpec("numa-4x8,cores-per-cluster=4,clusters-per-node=2",
                                  &spec.machine.topology, &topo_error),
                topo_error.c_str());
  spec.engine.balance_interval = Milliseconds(50);
  return spec;
}

SweepSpec RtSpec() {
  SweepSpec spec = BaseSpec();
  spec.name = "rt";
  spec.policies = {PolicyKind::kDynAff, PolicyKind::kRtStaticAffinity, PolicyKind::kRtColorIso};
  spec.mixes = {PaperMixes()[0], PaperMixes()[4]};
  spec.replication.min_replications = 2;
  spec.replication.max_replications = 2;
  spec.root_seed = 1000;
  spec.rt = true;
  spec.deadline_mix = "soft";
  spec.machine.num_colors = 8;
  return spec;
}

namespace {

// The closed grammar's own keys, then the shared ones.
bool ApplySweepKey(SweepSpec* spec, const std::string& key, const std::string& value,
                   std::string* error) {
  if (key == "mixes") {
    return ReadSpecList(
        key, value,
        [&key](const std::string& number, WorkloadMix* mix, std::string* item_error) {
          size_t n = 0;
          if (!ReadSpecNumber(key, number, &n, item_error)) {
            return false;
          }
          if (n < 1 || n > 6) {
            return SpecError(item_error, "mix number '" + number + "' out of range 1-6");
          }
          *mix = PaperMixes()[n - 1];
          return true;
        },
        &spec->mixes, error);
  }
  if (key == "reps") {
    // N fixed, or MIN-MAX adaptive.
    ReplicationOptions& reps = spec->replication;
    const size_t dash = value.find('-');
    const std::string min = value.substr(0, dash);
    const std::string max = dash == std::string::npos ? min : value.substr(dash + 1);
    if (!ReadSpecNumber(key, min, &reps.min_replications, error) ||
        !ReadSpecNumber(key, max, &reps.max_replications, error)) {
      return false;
    }
    return (reps.min_replications >= 1 && reps.max_replications >= reps.min_replications &&
            reps.max_replications <= kMaxReplications) ||
           SpecError(error, "bad reps '" + value +
                                "' (N, or MIN-MAX with 1 <= MIN <= MAX <= 1000)");
  }
  if (key == "precision") {
    return ReadSpecNumber(key, value, &spec->replication.relative_precision, error);
  }
  if (key == "observability") {
    return ReadSpecBool(key, value, &spec->observability, error);
  }
  if (key == "balance-interval") {
    double ms = 0.0;
    if (!ReadSpecNumber(key, value, &ms, error)) {
      return false;
    }
    if (ms < 0.0 || ms > kMaxBalanceIntervalMs) {
      return SpecError(error, "balance interval must be in [0, 1e6] ms");
    }
    spec->engine.balance_interval = Milliseconds(ms);
    return true;
  }
  return ApplyGridKey(key, value, "sweep", spec, error);
}

bool LoadSweepPreset(SweepSpec* spec, const std::string& preset) {
  // A spec without a preset starts from the full fig5 grid.
  const std::pair<const char*, SweepSpec (*)()> presets[] = {
      {"", Fig5Spec},         {"fig5", Fig5Spec},   {"table3", Table3Spec},
      {"future", FutureSpec}, {"smoke", SmokeSpec}, {"mq", MqSpec},
      {"rt", RtSpec}};
  for (const auto& [name, make] : presets) {
    if (preset == name) {
      *spec = make();
      return true;
    }
  }
  return false;
}

}  // namespace

bool ParseSweepSpec(const std::string& text, SweepSpec* spec, std::string* error) {
  if (!ParseSpec(text, ';', "sweep", std::bind_front(LoadSweepPreset, spec),
                 std::bind_front(ApplySweepKey, spec), error)) {
    return false;
  }
  spec->name = text;
  *error = spec->machine.Validate();
  return error->empty();
}

const ExperimentResult* SweepResult::Find(PolicyKind policy, int mix_number) const {
  for (const ExperimentResult& experiment : experiments) {
    if (experiment.policy == policy && experiment.mix.number == mix_number) {
      return &experiment;
    }
  }
  return nullptr;
}

namespace {

// `,"key":{"<tier name>":count,...}` over tiers first..kNumDistanceTiers-1.
void AppendTierCounts(std::ostringstream& o, const char* key,
                      const uint64_t (&counts)[kNumDistanceTiers], size_t first) {
  o << ",\"" << key << "\":{";
  for (size_t tier = first; tier < kNumDistanceTiers; ++tier) {
    o << (tier > first ? "," : "") << "\"" << DistanceTierName(tier) << "\":" << counts[tier];
  }
  o << "}";
}

// The per-tier blocks are emitted only for hierarchical topologies, and the
// steal blocks only for grids containing a multi-queue policy, so the
// flat-machine JSON stays byte-identical to the pre-topology schema (pinned
// by tests/golden/).
std::string StatsJson(const JobStats& stats, bool tiered, bool mq, bool rt) {
  std::ostringstream o;
  o << "{\"useful_work_s\":" << JsonNumber(stats.useful_work_s)
    << ",\"reload_stall_s\":" << JsonNumber(stats.reload_stall_s)
    << ",\"steady_stall_s\":" << JsonNumber(stats.steady_stall_s)
    << ",\"switch_s\":" << JsonNumber(stats.switch_s)
    << ",\"waste_s\":" << JsonNumber(stats.waste_s)
    << ",\"alloc_integral_s\":" << JsonNumber(stats.alloc_integral_s)
    << ",\"reallocations\":" << stats.reallocations
    << ",\"affinity_dispatches\":" << stats.affinity_dispatches
    << ",\"affinity_fraction\":" << JsonNumber(stats.AffinityFraction())
    << ",\"realloc_interval_s\":" << JsonNumber(stats.ReallocationIntervalSeconds())
    << ",\"avg_alloc\":" << JsonNumber(stats.AverageAllocation());
  if (tiered) {
    AppendTierCounts(o, "migrations", stats.migrations, 0);
    o << ",\"reload_llc_s\":" << JsonNumber(stats.reload_llc_s)
      << ",\"reload_remote_s\":" << JsonNumber(stats.reload_remote_s);
  }
  if (mq) {
    // Tier 0 is a local-queue dispatch, never a steal.
    AppendTierCounts(o, "steals", stats.steals, 1);
    o << ",\"balance_migrations\":" << stats.balance_migrations;
  }
  if (rt) {
    o << ",\"deadline_misses\":" << stats.deadline_misses
      << ",\"tardiness_s\":" << JsonNumber(stats.tardiness_s)
      << ",\"worst_reload_s\":" << JsonNumber(stats.worst_reload_s);
  }
  o << "}";
  return o.str();
}

}  // namespace

std::string SweepResult::ToJson() const {
  std::ostringstream o;
  // schema_version 3 = 1 + the opt-in "observability" and/or "rt" blocks; the
  // default document is byte-identical to schema 1 so golden baselines stay
  // pinned.
  o << "{\"schema_version\":" << ((spec.observability || spec.rt) ? 3 : 1)
    << ",\"tool\":\"sweep_runner\"";

  AppendGridSpecJsonHead(spec, o);
  o << ",\"mixes\":[";
  for (size_t i = 0; i < spec.mixes.size(); ++i) {
    o << (i > 0 ? "," : "") << spec.mixes[i].number;
  }
  o << "],\"replications\":{\"min\":" << spec.replication.min_replications
    << ",\"max\":" << spec.replication.max_replications
    << ",\"precision\":" << JsonNumber(spec.replication.relative_precision)
    << ",\"confidence\":" << JsonNumber(kReplicationConfidence) << "}";
  AppendGridSpecJsonTail(spec, o);

  const bool tiered = !spec.machine.topology.IsFlat();
  bool mq = false;
  for (PolicyKind policy : spec.policies) {
    mq = mq || IsMqPolicy(policy);
  }
  o << ",\"experiments\":[";
  for (size_t e = 0; e < experiments.size(); ++e) {
    const ExperimentResult& experiment = experiments[e];
    const ReplicatedResult& rep = experiment.replicated;
    o << (e > 0 ? "," : "") << "{\"policy\":\"" << PolicyKindCliName(experiment.policy) << "\""
      << ",\"mix\":" << experiment.mix.number << ",\"replications\":" << rep.replications;
    o << ",\"jobs\":[";
    for (size_t j = 0; j < rep.app.size(); ++j) {
      o << (j > 0 ? "," : "") << "{\"index\":" << j << ",\"app\":\"" << JsonEscape(rep.app[j])
        << "\",\"mean_response_s\":" << JsonNumber(rep.MeanResponse(j)) << ",\"ci_half_width_s\":"
        << JsonNumber(rep.response[j].ConfidenceHalfWidth(kReplicationConfidence))
        << ",\"mean_stats\":" << StatsJson(rep.mean_stats[j], tiered, mq, spec.rt) << "}";
    }
    o << "],\"cells\":[";
    for (size_t c = 0; c < experiment.cells.size(); ++c) {
      const CellResult& cell = experiment.cells[c];
      o << (c > 0 ? "," : "") << "{\"rep\":" << cell.replication
        << ",\"seed\":" << SeedToDecimal(cell.seed) << ",\"makespan_s\":" << JsonNumber(ToSeconds(cell.run.makespan)) << ",\"response_s\":[";
      for (size_t j = 0; j < cell.run.jobs.size(); ++j) {
        o << (j > 0 ? "," : "") << JsonNumber(cell.run.jobs[j].stats.ResponseSeconds());
      }
      o << "]}";
    }
    o << "]}";
  }
  o << "]";

  if (spec.observability) {
    // Affinity efficiency per experiment, derived from the replicated mean
    // stats: how much of the consumed machine time went to rebuilding cache
    // context, how often dispatches landed on it, and where migrations went.
    o << ",\"observability\":{\"experiments\":[";
    for (size_t e = 0; e < experiments.size(); ++e) {
      const ExperimentResult& experiment = experiments[e];
      JobStats total;
      for (const JobStats& stats : experiment.replicated.mean_stats) {
        total.Accumulate(stats);
      }
      o << (e > 0 ? "," : "") << "{\"policy\":\"" << PolicyKindCliName(experiment.policy) << "\""
        << ",\"mix\":" << experiment.mix.number
        << ",\"reload_transient_fraction\":" << JsonNumber(total.ReloadTransientFraction())
        << ",\"affine_fraction\":" << JsonNumber(total.AffinityFraction());
      AppendTierCounts(o, "migrations", total.migrations, 0);
      o << "}";
    }
    o << "]}";
  }

  if (spec.rt) {
    // Real-time summary per experiment, derived from the recorded cells:
    // deadline-miss rate over all (job, replication) completions, mean and
    // p99 tardiness, and the worst-case-observed reload across the whole
    // experiment.
    o << ",\"rt\":{\"deadline_mix\":\"" << JsonEscape(spec.deadline_mix)
      << "\",\"experiments\":[";
    for (size_t e = 0; e < experiments.size(); ++e) {
      const ExperimentResult& experiment = experiments[e];
      uint64_t misses = 0;
      uint64_t completions = 0;
      double worst_reload = 0.0;
      std::vector<double> tardiness;
      for (const CellResult& cell : experiment.cells) {
        for (const JobResult& job : cell.run.jobs) {
          misses += job.stats.deadline_misses;
          ++completions;
          tardiness.push_back(job.stats.tardiness_s);
          worst_reload = std::max(worst_reload, job.stats.worst_reload_s);
        }
      }
      std::sort(tardiness.begin(), tardiness.end());
      double sum_tardiness = 0.0;
      for (double t : tardiness) {
        sum_tardiness += t;
      }
      const double mean_tardiness =
          completions > 0 ? sum_tardiness / static_cast<double>(completions) : 0.0;
      double p99 = 0.0;
      if (!tardiness.empty()) {
        const size_t n = tardiness.size();
        size_t idx = (99 * n + 99) / 100;  // ceil(0.99 * n)
        if (idx == 0) {
          idx = 1;
        }
        p99 = tardiness[idx - 1];
      }
      o << (e > 0 ? "," : "") << "{\"policy\":\"" << PolicyKindCliName(experiment.policy)
        << "\",\"mix\":" << experiment.mix.number << ",\"completions\":" << completions
        << ",\"deadline_misses\":" << misses << ",\"deadline_miss_rate\":"
        << JsonNumber(completions > 0
                          ? static_cast<double>(misses) / static_cast<double>(completions)
                          : 0.0)
        << ",\"mean_tardiness_s\":" << JsonNumber(mean_tardiness)
        << ",\"p99_tardiness_s\":" << JsonNumber(p99)
        << ",\"worst_reload_s\":" << JsonNumber(worst_reload) << "}";
    }
    o << "]}";
  }

  // Relative response times vs Equipartition (the Figure 5 quantities) —
  // emitted when the grid includes Equipartition, so CI can gate on the
  // paper's headline ratios without recomputing them.
  bool first_ratio = true;
  std::ostringstream ratios;
  for (const WorkloadMix& mix : spec.mixes) {
    const ExperimentResult* equi = Find(PolicyKind::kEquipartition, mix.number);
    if (equi == nullptr) {
      continue;
    }
    for (PolicyKind policy : spec.policies) {
      if (policy == PolicyKind::kEquipartition) {
        continue;
      }
      const ExperimentResult* run = Find(policy, mix.number);
      if (run == nullptr) {
        continue;
      }
      for (size_t j = 0; j < run->replicated.app.size(); ++j) {
        ratios << (first_ratio ? "" : ",") << "{\"mix\":" << mix.number << ",\"policy\":\""
               << PolicyKindCliName(policy) << "\",\"job\":" << j << ",\"app\":\""
               << JsonEscape(run->replicated.app[j]) << "\",\"ratio\":"
               << JsonNumber(run->replicated.MeanResponse(j) / equi->replicated.MeanResponse(j))
               << "}";
        first_ratio = false;
      }
    }
  }
  const std::string ratio_text = ratios.str();
  if (!ratio_text.empty()) {
    o << ",\"relative_response\":[" << ratio_text << "]";
  }
  o << "}";
  return o.str();
}

bool SweepResult::WriteJsonFile(const std::string& path) const {
  return Sampler::WriteFile(path, ToJson() + "\n");
}

}  // namespace affsched
