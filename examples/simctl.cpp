// simctl: a command-line driver for the simulator — pick a workload mix, a
// policy, a machine, and get the full per-job report (optionally a Gantt
// chart and a CSV event trace).
//
//   ./build/examples/simctl --mix=5 --policy=dyn-aff --procs=16 --gantt
//   ./build/examples/simctl --mix=2 --policy=equi --speed=16 --cache=16
//   ./build/examples/simctl --mix=5 --metrics --chrome-trace=trace.json
//   ./build/examples/simctl --sweep=smoke --jobs=8 --out=BENCH.json
//   ./build/examples/simctl --open --preset=opensys --jobs=8 --out=open.json
//   ./build/examples/simctl --open --rho=0.7,0.9 --arrivals=onoff --mpl-cap=8
//   ./build/examples/simctl --help

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/engine/engine.h"
#include "src/measure/mixes.h"
#include "src/measure/report.h"
#include "src/opensys/open_sweep.h"
#include "src/rt/deadline_mix.h"
#include "src/runner/heartbeat.h"
#include "src/runner/runner.h"
#include "src/runner/sweep.h"
#include "src/runner/worker_pool.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/manifest.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/job_spans.h"
#include "src/topology/topology.h"
#include "src/trace/decision_trace.h"
#include "src/trace/trace.h"

using namespace affsched;

namespace {

// Statistics over zero samples (a cell that completed no jobs) are NaN;
// render those as "n/a" instead of printing NaN into the table.
std::string FormatStat(double value, int digits) {
  return std::isfinite(value) ? FormatDouble(value, digits) : "n/a";
}

// Runs a whole experiment grid on a worker pool (--sweep mode). Consults
// --sweep, --jobs, --out, --progress and --heartbeat; the spec string
// carries everything else.
// Folds the --rt/--colors/--deadline-mix flags into a sweep/open spec string
// as trailing overrides (later keys win, so explicit spec keys and flags
// compose predictably).
std::string AppendRtOverrides(std::string spec_text, const FlagSet& flags) {
  if (flags.GetBool("rt")) {
    spec_text += ";rt=1;deadline-mix=" + flags.GetString("deadline-mix");
  }
  if (flags.GetInt("colors") > 0) {
    spec_text += ";colors=" + std::to_string(flags.GetInt("colors"));
  }
  return spec_text;
}

int RunSweepMode(const FlagSet& flags) {
  const std::string spec_text = AppendRtOverrides(flags.GetString("sweep"), flags);
  const size_t jobs = static_cast<size_t>(flags.GetInt("jobs"));
  const std::string out_path = flags.GetString("out");
  SweepSpec spec;
  std::string error;
  if (!ParseSweepSpec(spec_text, &spec, &error)) {
    std::printf("bad --sweep: %s\n", error.c_str());
    return 1;
  }

  std::unique_ptr<HeartbeatWriter> heartbeat;
  const std::string heartbeat_path = flags.GetString("heartbeat");
  if (!heartbeat_path.empty()) {
    heartbeat = std::make_unique<HeartbeatWriter>(heartbeat_path);
    if (!heartbeat->ok()) {
      std::printf("failed to open --heartbeat file %s\n", heartbeat_path.c_str());
      return 1;
    }
    heartbeat->Start(spec.name, spec.MinCells());
  }
  const bool progress = flags.GetBool("progress");

  SweepRunnerOptions options;
  options.jobs = jobs;
  if (heartbeat != nullptr || progress) {
    options.round_stats = [&](const SweepRoundStats& s) {
      if (heartbeat != nullptr) {
        heartbeat->OnRound(s);
      }
      if (progress) {
        const double events_per_s =
            s.round_wall_s > 0.0 ? static_cast<double>(s.round_events) / s.round_wall_s : 0.0;
        const size_t remaining = s.scheduled > s.completed ? s.scheduled - s.completed : 0;
        const double eta_s =
            s.completed > 0
                ? static_cast<double>(remaining) * s.total_wall_s / static_cast<double>(s.completed)
                : 0.0;
        std::fprintf(stderr,
                     "sweep: %zu/%zu cells | round %zu: %zu cells in %.2fs "
                     "(%.2fs/cell) | %.2fM events/s | eta %.1fs\n",
                     s.completed, s.scheduled, s.round, s.round_cells, s.round_wall_s,
                     s.round_cells > 0 ? s.round_wall_s / static_cast<double>(s.round_cells) : 0.0,
                     events_per_s / 1e6, eta_s);
      }
    };
  }
  if (!progress) {
    options.progress = [](size_t completed, size_t scheduled) {
      std::fprintf(stderr, "sweep: %zu/%zu cells\n", completed, scheduled);
    };
  }
  SweepRunner runner(options);
  const SweepResult result = runner.Run(spec);
  if (heartbeat != nullptr) {
    size_t completed = 0;
    for (const ExperimentResult& experiment : result.experiments) {
      completed += experiment.replicated.replications;
    }
    heartbeat->Finish(completed, result.wall_seconds);
  }

  std::printf("sweep '%s': %zu experiments on %zu worker(s), %.2fs wall\n\n", spec.name.c_str(),
              result.experiments.size(),
              jobs == 0 ? WorkerPool::DefaultThreadCount() : jobs, result.wall_seconds);
  TextTable table;
  table.SetHeader({"mix", "policy", "job", "reps", "mean RT (s)", "vs equi"});
  for (const ExperimentResult& experiment : result.experiments) {
    const ExperimentResult* equi =
        result.Find(PolicyKind::kEquipartition, experiment.mix.number);
    for (size_t j = 0; j < experiment.replicated.app.size(); ++j) {
      std::string ratio = "-";
      if (equi != nullptr && experiment.policy != PolicyKind::kEquipartition) {
        ratio = FormatDouble(
            experiment.replicated.MeanResponse(j) / equi->replicated.MeanResponse(j), 3);
      }
      table.AddRow({experiment.mix.Label(), PolicyKindCliName(experiment.policy),
                    experiment.replicated.app[j] + " (" + std::to_string(j) + ")",
                    std::to_string(experiment.replicated.replications),
                    FormatDouble(experiment.replicated.MeanResponse(j), 2), ratio});
    }
  }
  std::printf("%s\n", table.Render().c_str());

  if (!out_path.empty()) {
    if (!result.WriteJsonFile(out_path)) {
      std::printf("failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote sweep results to %s\n", out_path.c_str());
  }
  return 0;
}

// Runs an open-system load sweep (--open mode): stochastic arrivals through
// admission control, latency percentiles per (policy, arrival process, rho)
// cell. The spec string comes from --preset with --rho/--arrivals/--mpl-cap/
// --max-queue folded in as overrides.
int RunOpenMode(const FlagSet& flags, int argc, char** argv) {
  std::string spec_text = flags.GetString("preset");
  if (!flags.GetString("rho").empty()) {
    spec_text += ";rhos=" + flags.GetString("rho");
  }
  if (!flags.GetString("arrivals").empty()) {
    spec_text += ";arrivals=" + flags.GetString("arrivals");
  }
  if (flags.GetInt("mpl-cap") != 0) {
    spec_text += ";mpl-cap=" + std::to_string(flags.GetInt("mpl-cap"));
  }
  if (flags.GetInt("max-queue") >= 0) {
    spec_text += ";max-queue=" + std::to_string(flags.GetInt("max-queue"));
  }
  spec_text = AppendRtOverrides(spec_text, flags);

  OpenSweepSpec spec;
  std::string error;
  if (!ParseOpenSweepSpec(spec_text, &spec, &error)) {
    std::printf("bad open sweep spec: %s\n", error.c_str());
    return 1;
  }

  const size_t jobs = static_cast<size_t>(flags.GetInt("jobs"));
  std::unique_ptr<HeartbeatWriter> heartbeat;
  const std::string heartbeat_path = flags.GetString("heartbeat");
  if (!heartbeat_path.empty()) {
    heartbeat = std::make_unique<HeartbeatWriter>(heartbeat_path);
    if (!heartbeat->ok()) {
      std::printf("failed to open --heartbeat file %s\n", heartbeat_path.c_str());
      return 1;
    }
    heartbeat->Start(spec.name, spec.Cells());
  }
  OpenSweepRunnerOptions options;
  options.jobs = jobs;
  options.progress = [&heartbeat](size_t completed, size_t total) {
    std::fprintf(stderr, "open sweep: %zu/%zu cells\n", completed, total);
    if (heartbeat != nullptr) {
      heartbeat->OnProgress(completed, total);
    }
  };
  const OpenSweepResult result = OpenSweepRunner(options).Run(spec);
  if (heartbeat != nullptr) {
    heartbeat->Finish(result.cells.size(), result.wall_seconds);
  }

  std::printf("open sweep '%s': %zu cells on %zu worker(s), %.2fs wall\n"
              "mean job demand %.2fs; admission %s\n\n",
              spec.name.c_str(), result.cells.size(),
              jobs == 0 ? WorkerPool::DefaultThreadCount() : jobs, result.wall_seconds,
              result.mean_demand_s,
              MakeAdmissionController(spec.mpl_cap, spec.max_queue)->Name().c_str());

  TextTable table;
  table.SetHeader({"arrivals", "rho", "policy", "p50 (s)", "p95 (s)", "p99 (s)", "rej %",
                   "queue", "aff %", "L=lamW"});
  for (const OpenCellResult& cell : result.cells) {
    const OpenSystemResult& r = cell.result;
    table.AddRow({ArrivalKindName(cell.arrivals), FormatDouble(cell.rho, 2),
                  PolicyKindCliName(cell.policy), FormatStat(r.p50_sojourn_s, 2),
                  FormatStat(r.p95_sojourn_s, 2), FormatStat(r.p99_sojourn_s, 2),
                  FormatStat(r.reject_rate * 100.0, 1), FormatStat(r.mean_queue_len, 2),
                  FormatStat(r.affinity_fraction * 100.0, 1),
                  r.littles.ok ? "ok" : "FAIL"});
  }
  std::printf("%s\n", table.Render().c_str());
  if (!result.AllLittlesLawOk()) {
    std::printf("WARNING: a cell failed the Little's-law self-check (accounting bug?)\n");
  }

  const std::string out_path = flags.GetString("out");
  if (!out_path.empty()) {
    if (!result.WriteJsonFile(out_path)) {
      std::printf("failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote open sweep results to %s\n", out_path.c_str());
  }
  const std::string manifest_path = flags.GetString("manifest");
  if (!manifest_path.empty()) {
    RunManifest manifest;
    manifest.SetProvenance(argc, argv);
    manifest.SetString("tool", "simctl-open");
    manifest.SetString("spec", spec.name);
    manifest.SetUint("seed", spec.root_seed);
    manifest.SetNumber("cells", static_cast<double>(result.cells.size()));
    manifest.SetNumber("mean_demand_s", result.mean_demand_s);
    manifest.SetBool("littles_law_ok", result.AllLittlesLawOk());
    if (!manifest.WriteFile(manifest_path)) {
      std::printf("failed to write %s\n", manifest_path.c_str());
      return 1;
    }
    std::printf("wrote run manifest to %s\n", manifest_path.c_str());
  }
  return result.AllLittlesLawOk() ? 0 : 1;
}

// Prints the sweep preset grids (--list-presets): what --sweep=<name> runs.
void ListPresets() {
  TextTable table;
  table.SetHeader({"preset", "seed", "policies", "mixes", "reps", "min cells"});
  for (const SweepSpec& spec :
       {Fig5Spec(), Table3Spec(), FutureSpec(), SmokeSpec(), MqSpec(), RtSpec()}) {
    std::string policies;
    for (PolicyKind kind : spec.policies) {
      policies += (policies.empty() ? "" : ",") + PolicyKindCliName(kind);
    }
    std::string mixes;
    for (const WorkloadMix& mix : spec.mixes) {
      mixes += (mixes.empty() ? "" : ",") + std::to_string(mix.number);
    }
    const std::string reps =
        spec.replication.min_replications == spec.replication.max_replications
            ? std::to_string(spec.replication.min_replications)
            : std::to_string(spec.replication.min_replications) + "-" +
                  std::to_string(spec.replication.max_replications);
    table.AddRow({spec.name, std::to_string(spec.root_seed), policies, mixes, reps,
                  std::to_string(spec.MinCells())});
  }
  std::printf("%s\nRun one with --sweep=<preset>; append ;key=value overrides "
              "(e.g. --sweep=\"fig5;reps=2;procs=8\").\n",
              table.Render().c_str());

  TextTable open_table;
  open_table.SetHeader({"open preset", "seed", "policies", "arrivals", "rhos", "cells"});
  for (const OpenSweepSpec& spec : {OpenSysSpec(), OpenSysSmokeSpec()}) {
    std::string policies;
    for (PolicyKind kind : spec.policies) {
      policies += (policies.empty() ? "" : ",") + PolicyKindCliName(kind);
    }
    std::string arrivals;
    for (ArrivalKind kind : spec.arrivals) {
      arrivals += (arrivals.empty() ? "" : ",") + ArrivalKindName(kind);
    }
    std::string rhos;
    for (double rho : spec.rhos) {
      rhos += (rhos.empty() ? "" : ",") + FormatDouble(rho, 2);
    }
    open_table.AddRow({spec.name, std::to_string(spec.root_seed), policies, arrivals, rhos,
                       std::to_string(spec.Cells())});
  }
  std::printf("\n%s\nRun one with --open --preset=<name>; --rho/--arrivals/--mpl-cap/"
              "--max-queue override the grid.\n",
              open_table.Render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags(
      "simctl: run one workload mix under one policy on a configurable machine.\n"
      "Policies: equi, dynamic, dyn-aff, dyn-aff-nopri, dyn-aff-delay,\n"
      "dyn-aff-cluster, dyn-aff-node, timeshare, timeshare-aff,\n"
      "mq-nosteal, mq-sibling, mq-cluster, mq-numa (per-processor queues;\n"
      "--steal is shorthand for the mq family),\n"
      "rt-static-affinity, rt-color-iso (static real-time assignment;\n"
      "pair with --rt and --colors).\n"
      "Mixes: 1-6 (Table 2 of the paper).");
  flags.AddInt("mix", 5, "workload mix number (1-6)");
  flags.AddString("policy", "dyn-aff", "allocation policy");
  flags.AddString("steal", "",
                  "multi-queue steal radius (nosteal, sibling, cluster, numa); "
                  "shorthand that overrides --policy with the matching mq-* kind");
  flags.AddDouble("balance-interval", 0.0,
                  "periodic load-balance tick in simulated milliseconds "
                  "(0 = no balancing)");
  flags.AddInt("procs", 16, "number of processors");
  flags.AddInt("seed", 42, "random seed");
  flags.AddDouble("speed", 1.0, "processor speed relative to the Symmetry");
  flags.AddDouble("cache", 1.0, "cache size relative to the Symmetry");
  flags.AddString("topology", "",
                  "machine topology: a preset (symmetry-flat, cmp-2x10, numa-4x8) "
                  "or preset,key=value overrides; see --list-topologies");
  flags.AddBool("list-topologies", false, "list the topology presets and exit");
  flags.AddBool("gantt", false, "render an ASCII Gantt chart");
  flags.AddBool("csv", false, "dump the event trace as CSV to stdout");
  flags.AddBool("metrics", false, "print end-of-run metric totals");
  flags.AddString("chrome-trace", "", "write a Chrome/Perfetto trace-event JSON file here");
  flags.AddString("decision-trace", "",
                  "write scheduling-decision provenance JSONL here (single-run "
                  "mode); with --chrome-trace, also renders a scheduler track "
                  "with flow arrows to the dispatches");
  flags.AddString("spans", "",
                  "write per-job lifecycle spans (arrival, queue wait, dispatches, "
                  "migrations, completion) as JSONL here; with --chrome-trace, "
                  "also annotates the job tracks");
  flags.AddString("samples", "", "write the sampled time series as CSV here");
  flags.AddDouble("sample-ms", 100.0, "sampling cadence in simulated milliseconds");
  flags.AddString("manifest", "", "write a run manifest (JSON) here");
  flags.AddBool("list-presets", false, "list the sweep preset grids and exit");
  flags.AddBool("engine-stats", false,
                "print event-core statistics (pool high-water mark, events/sec)");
  flags.AddString("sweep", "",
                  "run an experiment grid instead of one simulation: a preset "
                  "(fig5, table3, future, smoke, mq, rt) or key=value spec; see README");
  flags.AddInt("jobs", 0, "sweep worker threads (0 = hardware concurrency)");
  flags.AddString("out", "", "write sweep results JSON here");
  flags.AddBool("progress", false,
                "rich live progress on stderr for --sweep: per-round cell "
                "counts, wall times, events/sec, ETA");
  flags.AddString("heartbeat", "",
                  "stream live-progress JSONL here during --sweep/--open "
                  "(\"-\" = stderr); see README Observability");
  flags.AddBool("open", false,
                "run an open-system load sweep: stochastic arrivals, admission "
                "control, latency percentiles (see --preset)");
  flags.AddString("preset", "opensys",
                  "open sweep spec: a preset (opensys, opensys-smoke) or "
                  "key=value spec; used with --open");
  flags.AddString("rho", "", "offered loads for --open (comma-separated, e.g. 0.7,0.9)");
  flags.AddString("arrivals", "",
                  "arrival processes for --open (comma-separated: poisson, onoff)");
  flags.AddInt("mpl-cap", 0, "admission MPL cap for --open (0 = unbounded)");
  flags.AddInt("max-queue", -1,
               "admission queue bound for --open (-1 = unbounded; needs --mpl-cap)");
  flags.AddBool("rt", false,
                "real-time mode: stamp the --deadline-mix onto every job and "
                "report deadline misses/tardiness; composes with --sweep and "
                "--open (rt=1 spec override)");
  flags.AddInt("colors", 0,
               "page colors dividing each processor's cache (0 = uncolored); "
               "composes with --sweep and --open (colors=N override)");
  flags.AddString("deadline-mix", "soft",
                  "deadline mix for --rt: soft, hard, mixed, or tight "
                  "(tight is a guaranteed-miss fixture)");
  if (!flags.Parse(argc, argv)) {
    std::printf("%s\n", flags.help_requested() ? flags.Help().c_str() : flags.error().c_str());
    return flags.help_requested() ? 0 : 1;
  }

  if (flags.GetBool("list-presets")) {
    ListPresets();
    return 0;
  }

  if (flags.GetBool("list-topologies")) {
    std::printf("%s", RenderTopologyList().c_str());
    return 0;
  }

  if (flags.GetInt("jobs") < 0) {
    std::printf("--jobs must be >= 0\n");
    return 1;
  }

  if (!flags.GetString("sweep").empty()) {
    return RunSweepMode(flags);
  }

  if (flags.GetBool("open")) {
    return RunOpenMode(flags, argc, argv);
  }

  const int mix_number = static_cast<int>(flags.GetInt("mix"));
  if (mix_number < 1 || mix_number > 6) {
    std::printf("--mix must be 1-6\n");
    return 1;
  }
  PolicyKind kind;
  if (!PolicyKindFromName(flags.GetString("policy"), &kind)) {
    std::printf("unknown --policy '%s'\n", flags.GetString("policy").c_str());
    return 1;
  }
  if (!flags.GetString("steal").empty() &&
      !PolicyKindFromStealName(flags.GetString("steal"), &kind)) {
    std::printf("unknown --steal '%s' (try nosteal, sibling, cluster, numa)\n",
                flags.GetString("steal").c_str());
    return 1;
  }
  if (flags.GetDouble("balance-interval") < 0.0 ||
      flags.GetDouble("balance-interval") > kMaxBalanceIntervalMs) {
    std::printf("--balance-interval must be in [0, 1e6] ms\n");
    return 1;
  }
  if (flags.GetDouble("sample-ms") <= 0.0) {
    std::printf("--sample-ms must be > 0\n");
    return 1;
  }

  if (flags.GetInt("procs") < 1) {
    std::printf("--procs must be >= 1\n");
    return 1;
  }
  MachineConfig machine;
  machine.num_processors = static_cast<size_t>(flags.GetInt("procs"));
  machine.processor_speed = flags.GetDouble("speed");
  machine.cache_size_factor = flags.GetDouble("cache");
  const int colors = static_cast<int>(flags.GetInt("colors"));
  if (colors < 0 || colors > 64) {
    std::printf("--colors must be in 0..64 (0 = uncolored)\n");
    return 1;
  }
  machine.num_colors = static_cast<size_t>(colors);
  if (!flags.GetString("topology").empty()) {
    std::string topology_error;
    if (!ParseTopologySpec(flags.GetString("topology"), &machine.topology, &topology_error)) {
      std::printf("bad --topology: %s\n", topology_error.c_str());
      return 1;
    }
  }
  const std::string machine_problem = machine.Validate();
  if (!machine_problem.empty()) {
    std::printf("bad machine config: %s\n", machine_problem.c_str());
    return 1;
  }

  const WorkloadMix mix = PaperMixes()[static_cast<size_t>(mix_number - 1)];
  std::printf("mix %s under %s on %zu processors (speed %.1fx, cache %.1fx, topology %s)\n\n",
              mix.Label().c_str(), PolicyKindName(kind).c_str(), machine.num_processors,
              machine.processor_speed, machine.cache_size_factor,
              machine.topology.name.c_str());

  const std::string chrome_trace_path = flags.GetString("chrome-trace");
  const std::string samples_path = flags.GetString("samples");
  const std::string manifest_path = flags.GetString("manifest");
  const bool want_metrics =
      flags.GetBool("metrics") || !manifest_path.empty();

  MetricsRegistry registry;
  RingTrace trace;
  Engine::Options engine_options;
  engine_options.balance_interval = Milliseconds(flags.GetDouble("balance-interval"));
  Engine engine(machine, MakePolicy(kind), static_cast<uint64_t>(flags.GetInt("seed")),
                engine_options);
  if (flags.GetBool("gantt") || flags.GetBool("csv") || !chrome_trace_path.empty()) {
    engine.SetTraceSink(&trace);
  }
  const std::string decision_path = flags.GetString("decision-trace");
  const std::string spans_path = flags.GetString("spans");
  DecisionTrace decisions;
  JobSpanCollector spans;
  if (!decision_path.empty()) {
    engine.SetDecisionSink(&decisions);
  }
  if (!spans_path.empty()) {
    engine.SetSpanCollector(&spans);
  }
  if (want_metrics) {
    engine.SetMetrics(&registry);
  }
  Sampler sampler(Milliseconds(flags.GetDouble("sample-ms")));
  if (!samples_path.empty()) {
    engine.SetSampler(&sampler);
  }
  std::vector<AppProfile> mix_jobs = mix.Expand(DefaultProfiles());
  if (flags.GetBool("rt")) {
    std::string mix_error;
    if (!ApplyDeadlineMix(flags.GetString("deadline-mix"), machine.num_processors, &mix_jobs,
                          &mix_error)) {
      std::printf("bad --deadline-mix: %s\n", mix_error.c_str());
      return 1;
    }
  }
  for (const AppProfile& job : mix_jobs) {
    engine.SubmitJob(job);
  }
  const auto run_start = std::chrono::steady_clock::now();
  const SimTime end = engine.Run();
  const double run_wall_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - run_start)
                                .count();

  TextTable table;
  table.SetHeader(JobReportHeader());
  AppendJobReport(table, PolicyKindName(kind), engine);
  std::printf("%s\nmakespan: %s\n", table.Render().c_str(), FormatDuration(end).c_str());

  if (flags.GetBool("rt")) {
    uint64_t misses = 0;
    double tardiness_s = 0.0;
    double worst_reload_s = 0.0;
    for (JobId id = 0; id < engine.job_count(); ++id) {
      const JobStats& stats = engine.job_stats(id);
      misses += stats.deadline_misses;
      tardiness_s += stats.tardiness_s;
      worst_reload_s = std::max(worst_reload_s, stats.worst_reload_s);
    }
    std::printf("rt (%s mix): %llu/%zu deadline misses, total tardiness %.3fs, "
                "worst observed reload %.6fs\n",
                flags.GetString("deadline-mix").c_str(),
                static_cast<unsigned long long>(misses), engine.job_count(), tardiness_s,
                worst_reload_s);
  }

  if (flags.GetBool("gantt")) {
    std::printf("\n%s", trace.RenderGantt(machine.num_processors, 0, end).c_str());
  }
  if (flags.GetBool("csv")) {
    std::printf("\n%s", trace.ToCsv().c_str());
  }

  if (flags.GetBool("engine-stats")) {
    const EventQueue::Stats& stats = engine.event_queue_stats();
    std::printf("\nevent core: %llu scheduled, %llu run, %llu cancelled\n"
                "event pool high-water mark: %zu records\n"
                "throughput: %.0f events/sec (%.3fs wall)\n",
                static_cast<unsigned long long>(stats.scheduled),
                static_cast<unsigned long long>(stats.run),
                static_cast<unsigned long long>(stats.cancelled), stats.pool_high_water,
                run_wall_s > 0.0 ? static_cast<double>(stats.run) / run_wall_s : 0.0,
                run_wall_s);
  }

  if (flags.GetBool("metrics")) {
    std::printf("\n%s", registry.RenderText().c_str());
  }

  std::vector<std::string> job_names;
  job_names.reserve(engine.job_count());
  for (JobId id = 0; id < engine.job_count(); ++id) {
    job_names.push_back(engine.job_name(id));
  }

  // An output that was asked for and cannot be written fails the run, as
  // --out does; the remaining outputs are still attempted.
  int status = 0;
  const auto wrote = [&status](bool ok, const std::string& path) {
    if (!ok) {
      std::printf("\nfailed to write %s\n", path.c_str());
      status = 1;
    }
    return ok;
  };
  if (!decision_path.empty() &&
      wrote(Sampler::WriteFile(decision_path, decisions.ToJsonl()), decision_path)) {
    std::printf("\nwrote %zu decision records to %s\n", decisions.Records().size(),
                decision_path.c_str());
    if (decisions.dropped() > 0) {
      std::printf("warning: decision ring dropped %zu early records\n", decisions.dropped());
    }
  }
  if (!spans_path.empty() && wrote(Sampler::WriteFile(spans_path, spans.ToJsonl()), spans_path)) {
    std::printf("\nwrote %zu job lifecycle spans to %s\n", spans.jobs().size(),
                spans_path.c_str());
  }
  if (!chrome_trace_path.empty()) {
    ChromeTraceWriter writer;
    writer.AddEvents(trace.Events());
    std::vector<DecisionRecord> decision_records;
    if (!decision_path.empty()) {
      decision_records = decisions.Records();
      writer.AttachDecisions(&decision_records);
    }
    if (!spans_path.empty()) {
      writer.AttachLifecycles(&spans);
    }
    if (wrote(writer.WriteJsonFile(chrome_trace_path, machine.num_processors, job_names),
              chrome_trace_path)) {
      std::printf("\nwrote %zu trace events to %s (load in chrome://tracing or Perfetto)\n",
                  writer.size(), chrome_trace_path.c_str());
      if (trace.dropped() > 0) {
        std::printf("warning: ring buffer dropped %zu early events\n", trace.dropped());
      }
    }
  }
  if (!samples_path.empty() &&
      wrote(Sampler::WriteFile(samples_path, sampler.ToCsv()), samples_path)) {
    std::printf("\nwrote %zu samples x %zu probes to %s\n", sampler.num_samples(),
                sampler.num_probes(), samples_path.c_str());
  }
  if (!manifest_path.empty()) {
    RunManifest manifest;
    manifest.SetProvenance(argc, argv);
    manifest.SetString("tool", "simctl");
    manifest.SetString("mix", mix.Label());
    manifest.SetString("policy", PolicyKindName(kind));
    manifest.SetNumber("procs", static_cast<double>(machine.num_processors));
    manifest.SetNumber("speed", machine.processor_speed);
    manifest.SetNumber("cache", machine.cache_size_factor);
    manifest.SetString("topology", machine.topology.ToSpecString());
    // As an exact decimal, not SetNumber: 64-bit seeds above 2^53 would be
    // silently rounded through double and fail to round-trip.
    manifest.SetUint("seed", static_cast<uint64_t>(flags.GetInt("seed")));
    manifest.SetNumber("makespan_s", ToSeconds(end));
    manifest.AddMetrics(registry);
    if (wrote(manifest.WriteFile(manifest_path), manifest_path)) {
      std::printf("\nwrote run manifest to %s\n", manifest_path.c_str());
    }
  }
  return status;
}
