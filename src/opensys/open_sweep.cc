#include "src/opensys/open_sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>

#include "src/apps/apps.h"
#include "src/common/check.h"
#include "src/measure/experiment.h"
#include "src/rt/deadline_mix.h"
#include "src/runner/cell_seed.h"
#include "src/runner/sweep.h"
#include "src/runner/worker_pool.h"
#include "src/telemetry/json.h"
#include "src/telemetry/sampler.h"

namespace affsched {

std::string ArrivalKindName(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kOnOff:
      return "onoff";
  }
  AFF_CHECK(false);
  return "";
}

bool ArrivalKindFromName(const std::string& name, ArrivalKind* kind) {
  if (name == "poisson") {
    *kind = ArrivalKind::kPoisson;
    return true;
  }
  if (name == "onoff") {
    *kind = ArrivalKind::kOnOff;
    return true;
  }
  return false;
}

int RhoPermille(double rho) {
  AFF_CHECK_MSG(rho > 0.0, "offered load must be positive");
  const int permille = static_cast<int>(std::lround(rho * 1000.0));
  AFF_CHECK(permille >= 1);
  return permille;
}

double MeanServiceDemandSeconds(const std::vector<AppProfile>& apps,
                                const std::vector<double>& app_weights) {
  AFF_CHECK(apps.size() == app_weights.size());
  CheckAppWeights(app_weights);
  // The probe seed is a fixed constant, NOT the sweep seed: the rho -> rate
  // mapping must mean the same thing across sweeps or cross-run comparisons
  // at "the same rho" would silently compare different loads.
  constexpr uint64_t kDemandProbeSeed = 0x6F70656E;  // "open"
  constexpr size_t kProbesPerApp = 8;
  double weighted = 0.0;
  double total_weight = 0.0;
  for (size_t a = 0; a < apps.size(); ++a) {
    double sum_s = 0.0;
    for (size_t k = 0; k < kProbesPerApp; ++k) {
      Rng rng(DeriveSeed(kDemandProbeSeed, {static_cast<uint64_t>(a), static_cast<uint64_t>(k)}));
      sum_s += ToSeconds(apps[a].build_graph(rng)->TotalWork());
    }
    weighted += app_weights[a] * (sum_s / static_cast<double>(kProbesPerApp));
    total_weight += app_weights[a];
  }
  return weighted / total_weight;
}

namespace {

OpenSweepSpec BaseOpenSpec() {
  OpenSweepSpec spec;
  spec.machine = PaperMachineConfig();
  spec.apps = {MakeSmallMvaProfile(), MakeSmallMatrixProfile(), MakeSmallGravityProfile()};
  spec.app_weights = {1.0, 1.0, 1.0};
  return spec;
}

}  // namespace

OpenSweepSpec OpenSysSpec() {
  OpenSweepSpec spec = BaseOpenSpec();
  spec.name = "opensys";
  spec.policies = {PolicyKind::kEquipartition, PolicyKind::kDynamic, PolicyKind::kDynAff};
  spec.arrivals = {ArrivalKind::kPoisson, ArrivalKind::kOnOff};
  spec.rhos = {0.3, 0.5, 0.7, 0.8, 0.9, 0.95};
  spec.jobs_per_cell = 80;
  spec.replications = 1;
  spec.root_seed = 2000;
  return spec;
}

OpenSweepSpec OpenSysSmokeSpec() {
  OpenSweepSpec spec = BaseOpenSpec();
  spec.name = "opensys-smoke";
  spec.policies = {PolicyKind::kEquipartition, PolicyKind::kDynAff};
  spec.arrivals = {ArrivalKind::kPoisson};
  spec.rhos = {0.5, 0.8};
  spec.jobs_per_cell = 30;
  spec.replications = 1;
  spec.root_seed = 2000;
  return spec;
}

namespace {

// The open grammar's own keys, then the shared ones (src/runner/grid_spec.h).
bool ApplyOpenKey(OpenSweepSpec* spec, const std::string& key, const std::string& value,
                  std::string* error) {
  if (key == "arrivals") {
    return ReadSpecList(
        key, value,
        [](const std::string& name, ArrivalKind* kind, std::string* item_error) {
          return ArrivalKindFromName(name, kind) ||
                 SpecError(item_error, "unknown arrival process '" + name + "'");
        },
        &spec->arrivals, error);
  }
  if (key == "rhos") {
    return ReadSpecList(
        key, value,
        [&key](const std::string& number, double* rho, std::string* item_error) {
          // Cell seeds key on RhoPermille, so a rho must round to >= 1 per mille.
          return ReadSpecNumber(key, number, rho, item_error) &&
                 ((std::lround(*rho * 1000.0) >= 1 && *rho <= 1.5) ||
                  SpecError(item_error, "rho '" + number +
                                              "' must be in (0, 1.5] and round to >= 0.001"));
        },
        &spec->rhos, error);
  }
  if (key == "count" || key == "reps") {
    const bool count = key == "count";
    size_t& n = count ? spec->jobs_per_cell : spec->replications;
    const size_t cap = count ? kMaxArrivalsPerCell : kMaxReplications;
    return ReadSpecNumber(key, value, &n, error) &&
           ((n >= 1 && n <= cap) ||
            SpecError(error, key + " must be in [1, " + std::to_string(cap) + "]"));
  }
  if (key == "mpl-cap") {
    return ReadSpecNumber(key, value, &spec->mpl_cap, error);
  }
  if (key == "max-queue") {
    return ReadSpecNumber(key, value, &spec->max_queue, error);
  }
  if (key == "warmup") {
    OpenSystemOptions& open = spec->open;
    if (value == "mser") {
      open.warmup_rule = WarmupRule::kMser;
      return true;
    }
    open.warmup_rule = WarmupRule::kFraction;
    return ReadSpecNumber(key, value, &open.warmup_fraction, error) &&
           ((open.warmup_fraction >= 0.0 && open.warmup_fraction < 1.0) ||
            SpecError(error, "warmup must be 'mser' or a fraction in [0, 1)"));
  }
  if (key == "burst") {
    // Capped so the in-burst gap (the mean gap over the factor) stays well
    // above one nanosecond.
    return ReadSpecNumber(key, value, &spec->onoff_burst_factor, error) &&
           ((spec->onoff_burst_factor > 1.0 && spec->onoff_burst_factor <= 1000.0) ||
            SpecError(error, "burst factor must be in (1, 1000]"));
  }
  return ApplyGridKey(key, value, "open sweep", spec, error);
}

bool LoadOpenPreset(OpenSweepSpec* spec, const std::string& preset) {
  // A spec without a preset starts from the full opensys grid.
  const std::pair<const char*, OpenSweepSpec (*)()> presets[] = {
      {"", OpenSysSpec}, {"opensys", OpenSysSpec}, {"opensys-smoke", OpenSysSmokeSpec}};
  for (const auto& [name, make] : presets) {
    if (preset == name) {
      *spec = make();
      return true;
    }
  }
  return false;
}

}  // namespace

bool ParseOpenSweepSpec(const std::string& text, OpenSweepSpec* spec, std::string* error) {
  if (!ParseSpec(text, ';', "open sweep", std::bind_front(LoadOpenPreset, spec),
                 std::bind_front(ApplyOpenKey, spec), error)) {
    return false;
  }
  if (spec->max_queue >= 0 && spec->mpl_cap == 0) {
    return SpecError(error, "max-queue needs mpl-cap > 0");
  }
  spec->name = text;
  *error = spec->machine.Validate();
  return error->empty();
}

namespace {

std::unique_ptr<ArrivalProcess> MakeArrivalProcess(const OpenSweepSpec& spec, ArrivalKind kind,
                                                   double interarrival_s) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonProcess>(Seconds(interarrival_s), spec.app_weights);
    case ArrivalKind::kOnOff: {
      // Concentrate the target rate into bursts: during a burst arrivals are
      // burst_factor times faster, the burst holds burst_arrivals jobs on
      // average, and the off phase is sized so that the on fraction is
      // 1/burst_factor — the long-run rate then equals the Poisson cell's.
      OnOffProcess::Params params;
      const double on_interarrival_s = interarrival_s / spec.onoff_burst_factor;
      const double mean_on_s = spec.onoff_burst_arrivals * on_interarrival_s;
      params.on_interarrival = Seconds(on_interarrival_s);
      params.mean_on = Seconds(mean_on_s);
      params.mean_off = Seconds((spec.onoff_burst_factor - 1.0) * mean_on_s);
      return std::make_unique<OnOffProcess>(params, spec.app_weights);
    }
  }
  AFF_CHECK(false);
  return nullptr;
}

OpenSystemResult RunOpenCell(const OpenSweepSpec& spec, const std::vector<AppProfile>& apps,
                             PolicyKind policy, ArrivalKind kind, double rho, uint64_t seed,
                             double mean_demand_s) {
  const double capacity =
      static_cast<double>(spec.machine.num_processors) * spec.machine.processor_speed;
  AFF_CHECK(capacity > 0.0);
  const double interarrival_s = mean_demand_s / (rho * capacity);
  std::unique_ptr<ArrivalProcess> process = MakeArrivalProcess(spec, kind, interarrival_s);
  std::vector<ArrivalPlanEntry> plan =
      GenerateArrivals(*process, seed, spec.jobs_per_cell, /*t_end=*/0);
  AdmissionController admission(spec.mpl_cap, spec.max_queue);
  OpenSystemDriver driver(spec.machine, policy, apps, std::move(plan), &admission, seed,
                          spec.open);
  return driver.Run();
}

}  // namespace

OpenSweepRunner::OpenSweepRunner(const OpenSweepRunnerOptions& options) : options_(options) {}

OpenSweepResult OpenSweepRunner::Run(const OpenSweepSpec& spec) const {
  AFF_CHECK(spec.replications >= 1);
  const auto start = std::chrono::steady_clock::now();

  OpenSweepResult result;
  result.spec = spec;
  result.mean_demand_s = MeanServiceDemandSeconds(spec.apps, spec.app_weights);

  // In rt mode every cell draws from the deadline-stamped application set.
  // The stamping happens once, here, so the rho -> rate calibration above
  // (which only depends on work, not deadlines) is unaffected.
  std::vector<AppProfile> apps = spec.apps;
  if (spec.rt) {
    std::string mix_error;
    AFF_CHECK_MSG(ApplyDeadlineMix(spec.deadline_mix, spec.machine.num_processors, &apps,
                                   &mix_error),
                  mix_error.c_str());
  }

  // Expand the grid in serialization order; every cell folds into its
  // preallocated slot, so worker count and execution order cannot reorder
  // (or even reorder within float addition) anything.
  result.cells.reserve(spec.Cells());
  for (size_t a = 0; a < spec.arrivals.size(); ++a) {
    for (double rho : spec.rhos) {
      for (PolicyKind policy : spec.policies) {
        for (size_t rep = 0; rep < spec.replications; ++rep) {
          OpenCellResult& cell = result.cells.emplace_back();
          cell.policy = policy;
          cell.arrivals = spec.arrivals[a];
          cell.rho = rho;
          cell.replication = rep;
          cell.seed = DeriveOpenCellSeed(spec.root_seed, a, RhoPermille(rho), rep);
        }
      }
    }
  }

  WorkerPool pool(options_.jobs > 0 ? options_.jobs : WorkerPool::DefaultThreadCount());
  // Waves of one task per worker keep the progress callback on the
  // orchestration thread without perturbing results (slots are indexed).
  const size_t wave = pool.size();
  const size_t total = result.cells.size();
  for (size_t begin = 0; begin < total; begin += wave) {
    const size_t count = std::min(wave, total - begin);
    pool.ParallelFor(count, [&, begin](size_t k) {
      OpenCellResult& cell = result.cells[begin + k];
      cell.result = RunOpenCell(spec, apps, cell.policy, cell.arrivals, cell.rho, cell.seed,
                                result.mean_demand_s);
      if (spec.rt) {
        // A completed job misses when queue wait + service exceeds its
        // relative deadline; rejected jobs appear in neither count.
        for (const OpenJobRecord& job : cell.result.jobs) {
          const double deadline_s = apps[job.app_index].rt.deadline_s;
          if (job.rejected || deadline_s <= 0.0) {
            continue;
          }
          ++cell.deadline_checked;
          if (job.sojourn_s > deadline_s) {
            ++cell.deadline_misses;
          }
        }
      }
    });
    if (options_.progress) {
      options_.progress(begin + count, total);
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

bool OpenSweepResult::AllLittlesLawOk() const {
  for (const OpenCellResult& cell : cells) {
    if (!cell.result.littles.ok) {
      return false;
    }
  }
  return true;
}

std::string OpenSweepResult::ToJson() const {
  std::ostringstream o;
  o << "{\"schema_version\":2,\"tool\":\"open_sweep_runner\",\"mode\":\"open\"";

  AppendGridSpecJsonHead(spec, o);
  o << ",\"arrivals\":[";
  for (size_t i = 0; i < spec.arrivals.size(); ++i) {
    o << (i > 0 ? "," : "") << "\"" << ArrivalKindName(spec.arrivals[i]) << "\"";
  }
  o << "],\"rhos\":[";
  for (size_t i = 0; i < spec.rhos.size(); ++i) {
    o << (i > 0 ? "," : "") << JsonNumber(spec.rhos[i]);
  }
  o << "],\"jobs_per_cell\":" << spec.jobs_per_cell
    << ",\"replications\":" << spec.replications << ",\"admission\":{\"name\":\""
    << AdmissionController(spec.mpl_cap, spec.max_queue).Name()
    << "\",\"mpl_cap\":" << spec.mpl_cap << ",\"max_queue\":" << spec.max_queue << "}"
    << ",\"warmup\":{\"rule\":\""
    << (spec.open.warmup_rule == WarmupRule::kMser ? "mser" : "fraction")
    << "\",\"fraction\":" << JsonNumber(spec.open.warmup_fraction) << "}"
    << ",\"littles_tolerance\":" << JsonNumber(kLittlesTolerance)
    << ",\"mean_demand_s\":" << JsonNumber(mean_demand_s);
  AppendGridSpecJsonTail(spec, o);

  o << ",\"cells\":[";
  for (size_t c = 0; c < cells.size(); ++c) {
    const OpenCellResult& cell = cells[c];
    const OpenSystemResult& r = cell.result;
    o << (c > 0 ? "," : "") << "{\"policy\":\"" << PolicyKindCliName(cell.policy) << "\""
      << ",\"arrivals\":\"" << ArrivalKindName(cell.arrivals) << "\""
      << ",\"rho\":" << JsonNumber(cell.rho) << ",\"rep\":" << cell.replication
      << ",\"seed\":" << SeedToDecimal(cell.seed) << ",\"n_arrivals\":" << r.arrivals
      << ",\"admitted\":" << r.admitted << ",\"rejected\":" << r.rejected
      << ",\"reject_rate\":" << JsonNumber(r.reject_rate)
      << ",\"warmup_trimmed\":" << r.warmup_trimmed
      << ",\"mean_sojourn_s\":" << JsonNumber(r.mean_sojourn_s)
      << ",\"p50_sojourn_s\":" << JsonNumber(r.p50_sojourn_s)
      << ",\"p95_sojourn_s\":" << JsonNumber(r.p95_sojourn_s)
      << ",\"p99_sojourn_s\":" << JsonNumber(r.p99_sojourn_s)
      << ",\"max_sojourn_s\":" << JsonNumber(r.max_sojourn_s)
      << ",\"mean_queue_wait_s\":" << JsonNumber(r.mean_queue_wait_s)
      << ",\"mean_queue_len\":" << JsonNumber(r.mean_queue_len)
      << ",\"mean_jobs_in_system\":" << JsonNumber(r.mean_jobs_in_system)
      << ",\"affinity_fraction\":" << JsonNumber(r.affinity_fraction);
    if (spec.rt) {
      o << ",\"deadline_checked\":" << cell.deadline_checked
        << ",\"deadline_misses\":" << cell.deadline_misses << ",\"deadline_miss_rate\":"
        << JsonNumber(cell.deadline_checked > 0
                          ? static_cast<double>(cell.deadline_misses) /
                                static_cast<double>(cell.deadline_checked)
                          : 0.0);
    }
    o << ",\"throughput_per_s\":" << JsonNumber(r.throughput_per_s)
      << ",\"end_s\":" << JsonNumber(ToSeconds(r.end_time))
      << ",\"littles_law\":{\"l\":" << JsonNumber(r.littles.mean_jobs_in_system)
      << ",\"lambda_per_s\":" << JsonNumber(r.littles.arrival_rate_per_s)
      << ",\"w_s\":" << JsonNumber(r.littles.mean_sojourn_s)
      << ",\"rel_err\":" << JsonNumber(r.littles.relative_error)
      << ",\"ok\":" << (r.littles.ok ? "true" : "false") << "}}";
  }
  o << "]}";
  return o.str();
}

bool OpenSweepResult::WriteJsonFile(const std::string& path) const {
  return Sampler::WriteFile(path, ToJson() + "\n");
}

}  // namespace affsched
