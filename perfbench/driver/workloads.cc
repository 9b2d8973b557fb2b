#include "driver/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "src/common/check.h"
#include "src/opensys/admission.h"
#include "src/opensys/arrival_process.h"
#include "src/opensys/open_sweep.h"
#include "src/runner/cell_seed.h"
#include "src/runner/runner.h"
#include "src/serve/jsonv.h"
#include "src/serve/result_cache.h"
#include "src/serve/spec_canon.h"
#include "src/telemetry/job_spans.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"

namespace perfbench {

using namespace affsched;

namespace {

// Relative tolerance of the processor-seconds identity. The terms are sums
// of the same chunk charges, so only float rounding separates them.
constexpr double kIdentityTolerance = 1e-9;

// Thrown from a runner seam to end the measured window (done) or to restart
// the pass (not done) at a cell or round boundary.
struct StopRun {
  bool done = true;
};

// Builds one flat JSON object.
class JsonOut {
 public:
  JsonOut& Num(const std::string& key, double value) {
    return Raw(key, std::isfinite(value) ? JsonNumber(value) : "null");
  }
  JsonOut& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + JsonEscape(value) + "\"");
  }
  JsonOut& Raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "{" : ",") << "\"" << JsonEscape(key) << "\":" << json;
    first_ = false;
    return *this;
  }
  std::string Close() {
    return (first_ ? std::string("{") : out_.str()) + "}";
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string NumArray(const std::vector<double>& values) {
  std::string s = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    s += (i > 0 ? "," : "") + JsonNumber(values[i]);
  }
  return s + "]";
}

std::string StrArray(const std::vector<std::string>& values) {
  std::string s = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    s += (i > 0 ? ",\"" : "\"") + JsonEscape(values[i]) + "\"";
  }
  return s + "]";
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// One measured cell: host ms, simulated seconds, jobs completed, events run.
struct CellRow {
  double ms = 0.0;
  double sim_s = 0.0;
  double jobs = 0.0;
  double events = 0.0;
};

std::string CellRowsJson(const std::vector<CellRow>& rows) {
  std::string s = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const CellRow& r = rows[i];
    s += (i > 0 ? ",[" : "[") + JsonNumber(r.ms) + "," + JsonNumber(r.sim_s) + "," +
         JsonNumber(r.jobs) + "," + JsonNumber(r.events) + "]";
  }
  return s + "]";
}

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double identity_max = 0.0;
  std::string golden = "none";  // none | match | mismatch
  std::vector<std::string> messages;

  void Fail(const std::string& message) {
    ++failed;
    if (messages.size() < 20) {
      messages.push_back(message);
    }
  }

  // One simulated cell: counts as attempted, fails on a broken identity.
  void Cell(const RunResult& run, const std::string& what) {
    ++attempted;
    const double err = IdentityRelError(run);
    identity_max = std::max(identity_max, err);
    if (!(err <= kIdentityTolerance)) {
      Fail(what + ": processor-seconds identity off by " + JsonNumber(err));
    }
  }

  // One document compared against a committed golden.
  void Golden(const std::string& doc, const std::string& path) {
    ++attempted;
    std::string golden_text;
    if (!ReadFile(path, &golden_text)) {
      golden = "mismatch";
      Fail("cannot read golden " + path);
    } else if (doc != golden_text) {
      golden = "mismatch";
      Fail("document differs from " + path);
    } else if (golden != "mismatch") {
      golden = "match";
    }
  }

  void Emit(JsonOut* out) const {
    out->Num("attempted", static_cast<double>(attempted))
        .Num("failed", static_cast<double>(failed))
        .Num("identity_max_rel_err", identity_max)
        .Str("golden", golden)
        .Raw("messages", StrArray(messages));
  }
};

void EmitCommon(const RunOptions& options, double calib_before, JsonOut* out) {
  out->Str("workload", options.workload)
      .Num("seed", static_cast<double>(options.seed))
      .Num("trace", options.trace ? 1 : 0)
      .Raw("calib_ms", NumArray({calib_before, CalibrationMs()}))
      .Num("peak_rss_mb", PeakRssMb());
}

[[noreturn]] void ReportReady() {
  std::puts("ready");
  std::fflush(stdout);
  std::_Exit(0);
}

// --- Closed workloads (SweepRunner) -----------------------------------------

using MemoKey = std::tuple<int, int, size_t>;  // policy, mix number, replication
using Memo = std::map<MemoKey, RunResult>;

MemoKey KeyOf(PolicyKind policy, int mix, size_t rep) {
  return MemoKey{static_cast<int>(policy), mix, rep};
}

// A recorded result to answer (policy, mix, rep) with: the exact cell, else
// the same experiment's latest recorded replication, else any cell of the
// mix (same job count, so the fold accepts it).
const RunResult* FindStored(const Memo& memo, PolicyKind policy, int mix, size_t rep) {
  auto exact = memo.find(KeyOf(policy, mix, rep));
  if (exact != memo.end()) {
    return &exact->second;
  }
  const RunResult* same_mix = nullptr;
  const RunResult* same_experiment = nullptr;
  for (const auto& [key, result] : memo) {
    if (std::get<1>(key) != mix) {
      continue;
    }
    same_mix = &result;
    if (std::get<0>(key) == static_cast<int>(policy)) {
      same_experiment = &result;
    }
  }
  return same_experiment != nullptr ? same_experiment : same_mix;
}

// Simulates replication 0 of every (policy, mix) the memo cannot answer, so
// hit passes never reach run_cell.
void FillMemo(const SweepSpec& spec, Memo* memo) {
  for (const WorkloadMix& mix : spec.mixes) {
    for (PolicyKind policy : spec.policies) {
      if (FindStored(*memo, policy, mix.number, 0) == nullptr) {
        (*memo)[KeyOf(policy, mix.number, 0)] =
            RunOnce(spec.machine, policy, mix.Expand(spec.apps),
                    DeriveCellSeed(spec.root_seed, mix.number, 0), spec.engine);
      }
    }
  }
}

struct HitPassResult {
  std::vector<double> ms_per_cell;
  size_t rounds = 0;
  double fold_ms = 0.0;
  double json_ms = 0.0;
};

// Answers every cell of `spec` from `memo` through the runner's probe seam
// and serializes the document, pass after pass for `budget_s` (at least
// `min_passes`). One sample per pass: pass time over cells answered.
HitPassResult HitPasses(const SweepSpec& spec, Memo* memo, double budget_s, size_t min_passes) {
  FillMemo(spec, memo);
  HitPassResult out;
  size_t cells = 0;
  size_t rounds = 0;
  SweepRunnerOptions options;
  options.jobs = 1;
  options.probe_cell = [&](const SweepCellRef& ref, RunResult* result) {
    ++cells;
    *result = *FindStored(*memo, ref.policy, ref.mix_number, ref.replication);
    return true;
  };
  options.run_cell = [](const SweepCellRef&, const MachineConfig&, PolicyKind,
                        const std::vector<AppProfile>&, uint64_t,
                        const EngineOptions&) -> RunResult {
    throw std::logic_error("hit pass reached run_cell");
  };
  options.round_stats = [&](const SweepRoundStats&) { ++rounds; };
  std::vector<double> fold_ms;
  std::vector<double> json_ms;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (size_t pass = 0; pass < min_passes || (NowNs() < deadline && pass < 100000); ++pass) {
    cells = 0;
    rounds = 0;
    const int64_t t0 = NowNs();
    const SweepResult result = SweepRunner(options).Run(spec);
    const int64_t t1 = NowNs();
    const std::string doc = result.ToJson();
    const int64_t t2 = NowNs();
    out.ms_per_cell.push_back(static_cast<double>(t2 - t0) / 1e6 / static_cast<double>(cells));
    fold_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    json_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    out.rounds = rounds;
  }
  out.fold_ms = Median(fold_ms);
  out.json_ms = Median(json_ms);
  return out;
}

// Per-layer sums over a traced closed window.
struct ClosedLayerSums {
  size_t cells = 0;
  double events = 0, scheduled = 0, cancelled = 0, pool_high_water = 0;
  double run_ns = 0, build_ns = 0;
  double chunks = 0, dispatches = 0, reallocations = 0;
  double trace_records = 0, decision_records = 0;
  ReplayTiming chunk_replay, queue_replay;
  std::vector<double> traced_cell_ns, untraced_cell_ns, attached_ns, detached_ns;
};

// A committed golden document and the spec it was generated from.
struct Golden {
  uint64_t seed;
  std::string spec;
  std::string file;  // under RunOptions::golden_dir
};

// Runs `spec_text` on two workers, each cell built as the workload builds it.
std::string GoldenDocument(const std::string& spec_text, bool observed) {
  SweepSpec spec;
  std::string error;
  AFF_CHECK_MSG(ParseSweepSpec(spec_text, &spec, &error), error.c_str());
  SweepRunnerOptions runner;
  runner.jobs = 2;
  if (observed) {
    runner.run_cell = [](const SweepCellRef&, const MachineConfig& machine, PolicyKind policy,
                         const std::vector<AppProfile>& jobs, uint64_t seed,
                         const EngineOptions& engine) {
      return RunClosedCell(machine, policy, jobs, seed, engine,
                           CellOptions{true, nullptr, nullptr}, nullptr);
    };
  }
  return SweepRunner(runner).Run(spec).ToJson() + "\n";
}

// Runs the grid of `spec_text` through SweepRunner with one worker, pass
// after pass, ending at the first round boundary after the deadline. With
// `rounds_per_pass` > 0 each pass is cut after that many rounds and begins
// again, so the window only ever holds whole rounds of every experiment.
// A golden for the run's seed is then regenerated and compared.
std::string RunClosed(const RunOptions& options, const std::string& spec_text, bool observed,
                      size_t rounds_per_pass, const std::vector<Golden>& goldens) {
  SweepSpec spec;
  std::string error;
  if (!ParseSweepSpec(spec_text, &spec, &error)) {
    throw std::runtime_error("bad spec: " + error);
  }
  const double calib_before = options.probe_setup ? 0.0 : CalibrationMs();
  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  Memo memo;
  Checks checks;
  JsonOut out;

  if (!options.trace) {
    std::vector<CellRow> rows;
    std::vector<double> pass_s;
    std::vector<double> hit_ms;
    // Once a whole round is recorded, every cell is followed by one hit pass,
    // so hit samples see the same stretch of host time as the cells.
    bool memo_ready = false;
    int64_t hit_ns = 0;
    size_t rounds_in_pass = 0;
    CpuRotation cpus;
    SweepRunnerOptions runner;
    runner.jobs = 1;
    runner.run_cell = [&](const SweepCellRef& ref, const MachineConfig& machine, PolicyKind policy,
                          const std::vector<AppProfile>& jobs, uint64_t seed,
                          const EngineOptions& engine) {
      if (options.probe_setup) {
        ReportReady();
      }
      cpus.Next();
      const int64_t t0 = NowNs();
      RunResult r = observed ? RunClosedCell(machine, policy, jobs, seed, engine,
                                             CellOptions{true, nullptr, nullptr}, nullptr)
                             : RunOnce(machine, policy, jobs, seed, engine);
      rows.push_back(CellRow{static_cast<double>(NowNs() - t0) / 1e6, ToSeconds(r.makespan),
                             static_cast<double>(r.jobs.size()), static_cast<double>(r.events)});
      checks.Cell(r, PolicyKindCliName(policy) + " mix " + std::to_string(ref.mix_number));
      memo[KeyOf(policy, ref.mix_number, ref.replication)] = r;
      if (memo_ready) {
        const int64_t h0 = NowNs();
        hit_ms.push_back(HitPasses(spec, &memo, 0.0, 1).ms_per_cell.front());
        hit_ns += NowNs() - h0;
      }
      return r;
    };
    runner.round_stats = [&](const SweepRoundStats&) {
      memo_ready = true;
      ++rounds_in_pass;
      if (NowNs() >= deadline) {
        throw StopRun{true};
      }
      if (rounds_in_pass == rounds_per_pass) {
        throw StopRun{false};
      }
    };
    while (true) {
      const int64_t p0 = NowNs();
      hit_ns = 0;
      rounds_in_pass = 0;
      try {
        SweepRunner(runner).Run(spec);
        pass_s.push_back(static_cast<double>(NowNs() - p0 - hit_ns) / 1e9);
      } catch (const StopRun& stop) {
        if (stop.done) {
          break;
        }
      }
      if (NowNs() >= deadline) {
        break;
      }
    }
    cpus.Restore();
    for (const Golden& golden : goldens) {
      if (golden.seed == options.seed) {
        checks.Golden(GoldenDocument(golden.spec, observed),
                      options.golden_dir + "/" + golden.file);
      }
    }
    if (hit_ms.size() < 20) {
      // A host so slow that the window held barely one round.
      const HitPassResult more = HitPasses(spec, &memo, 0.0, 20 - hit_ms.size());
      hit_ms.insert(hit_ms.end(), more.ms_per_cell.begin(), more.ms_per_cell.end());
    }
    EmitCommon(options, calib_before, &out);
    out.Raw("cells", CellRowsJson(rows))
        .Raw("passes_s", NumArray(pass_s))
        .Raw("hit_ms_per_cell", NumArray(hit_ms));
    checks.Emit(&out);
    return out.Close();
  }

  // Traced window: per cell, run A is the workload's own configuration with
  // the timing decorators; B (sinks attached) and C (detached) are untraced
  // and give the tracing overhead, the sinks' cost, and the trace that the
  // cache replay follows.
  Tracer tracer;
  ClosedLayerSums sums;
  CpuRotation cpus;
  SweepRunnerOptions runner;
  runner.jobs = 1;
  runner.run_cell = [&](const SweepCellRef& ref, const MachineConfig& machine, PolicyKind policy,
                        const std::vector<AppProfile>& jobs, uint64_t seed,
                        const EngineOptions& engine) {
    tracer.set_cell(static_cast<uint32_t>(sums.cells));
    cpus.Next();
    CellCounts a;
    RunResult r;
    const int64_t t0 = NowNs();
    {
      Tracer::Scope cell(&tracer, Layer::kCell);
      r = RunClosedCell(machine, policy, jobs, seed, engine,
                        CellOptions{observed, &tracer, nullptr}, &a);
    }
    sums.traced_cell_ns.push_back(static_cast<double>(NowNs() - t0));
    // B and C swap order cell by cell, so neither always runs on caches the
    // other warmed.
    CellCounts b;
    CellCounts c;
    std::vector<TraceEvent> events;
    const auto run_b = [&] {
      RunClosedCell(machine, policy, jobs, seed, engine, CellOptions{true, nullptr, &events}, &b);
    };
    const auto run_c = [&] {
      RunClosedCell(machine, policy, jobs, seed, engine, CellOptions{false, nullptr, nullptr}, &c);
    };
    if (sums.cells % 2 == 0) {
      run_b();
      run_c();
    } else {
      run_c();
      run_b();
    }
    sums.attached_ns.push_back(static_cast<double>(b.build_ns + b.run_ns));
    sums.detached_ns.push_back(static_cast<double>(c.build_ns + c.run_ns));
    // The workload's own configuration, untraced.
    sums.untraced_cell_ns.push_back(observed ? sums.attached_ns.back() : sums.detached_ns.back());

    std::vector<WorkingSetParams> job_ws;
    for (const AppProfile& profile : jobs) {
      job_ws.push_back(profile.working_set);
    }
    {
      Tracer::Scope replay(&tracer, Layer::kChunkReplay);
      const ReplayTiming t = ReplayChunks(machine, PlacementsFromTrace(events), job_ws, b.chunks,
                                          engine.chunk_quantum);
      sums.chunk_replay.calls += t.calls;
      sums.chunk_replay.ns += t.ns;
    }
    {
      Tracer::Scope replay(&tracer, Layer::kQueueReplay);
      const ReplayTiming t = ReplayQueue(a.queue, seed);
      sums.queue_replay.calls += t.calls;
      sums.queue_replay.ns += t.ns;
    }
    ++sums.cells;
    sums.events += static_cast<double>(a.queue.run);
    sums.scheduled += static_cast<double>(a.queue.scheduled);
    sums.cancelled += static_cast<double>(a.queue.cancelled);
    sums.pool_high_water += static_cast<double>(a.queue.pool_high_water);
    sums.run_ns += static_cast<double>(a.run_ns);
    sums.build_ns += static_cast<double>(a.build_ns);
    sums.chunks += static_cast<double>(b.chunks);
    sums.dispatches += static_cast<double>(b.dispatches);
    for (const JobResult& job : r.jobs) {
      sums.reallocations += static_cast<double>(job.stats.reallocations);
    }
    sums.trace_records += static_cast<double>(a.trace_records);
    sums.decision_records += static_cast<double>(a.decision_records);
    checks.Cell(r, PolicyKindCliName(policy) + " mix " + std::to_string(ref.mix_number));
    memo[KeyOf(policy, ref.mix_number, ref.replication)] = r;
    if (NowNs() >= deadline) {
      throw StopRun{};
    }
    return r;
  };
  try {
    SweepRunner(runner).Run(spec);
  } catch (const StopRun&) {
  }
  cpus.Restore();
  const HitPassResult hits = HitPasses(spec, &memo, 0.2, 3);

  const double scope_ns = Tracer::ScopeCostNs();
  const double n = static_cast<double>(std::max<size_t>(sums.cells, 1));
  const Tracer::Totals& policy_t = tracer.totals(Layer::kPolicy);
  const Tracer::Totals& balance_t = tracer.totals(Layer::kBalance);
  const Tracer::Totals& trace_t = tracer.totals(Layer::kTraceSink);
  const Tracer::Totals& decision_t = tracer.totals(Layer::kDecisionSink);
  const double sched_calls = static_cast<double>(policy_t.count + balance_t.count);
  const double sched_ns = static_cast<double>(policy_t.total_ns + balance_t.total_ns);
  const double run_self_ns = static_cast<double>(tracer.totals(Layer::kRun).self_ns);
  const double chunk_ns = Ratio(static_cast<double>(sums.chunk_replay.ns),
                                static_cast<double>(sums.chunk_replay.calls));
  const auto per_record = [&](const Tracer::Totals& t) {
    return t.count > 0 ? std::max(0.0, static_cast<double>(t.total_ns) / t.count - scope_ns) : 0.0;
  };

  JsonOut layers;
  layers.Num("sim.events_per_cell", sums.events / n)
      .Num("sim.cancelled_frac", Ratio(sums.cancelled, sums.scheduled))
      .Num("sim.pool_high_water", sums.pool_high_water / n)
      .Num("sim.host_ns_per_event", Ratio(sums.run_ns, sums.events))
      .Num("sim.queue_ns_per_event_replay",
           Ratio(static_cast<double>(sums.queue_replay.ns),
                 static_cast<double>(sums.queue_replay.calls)))
      .Num("engine.run_ms_per_cell", sums.run_ns / n / 1e6)
      .Num("engine.self_ns_per_event", Ratio(run_self_ns, sums.events))
      .Num("engine.build_ms_per_cell", sums.build_ns / n / 1e6)
      .Num("engine.dispatches_per_cell", sums.dispatches / n)
      .Num("engine.reallocations_per_cell", sums.reallocations / n)
      .Num("cache.chunk_ns_replay", chunk_ns)
      .Num("cache.chunks_per_cell", sums.chunks / n)
      .Num("cache.share_est", Ratio(chunk_ns * sums.chunks, sums.run_ns))
      .Num("sched.calls_per_cell", sched_calls / n)
      .Num("sched.ns_per_call", Ratio(sched_ns, sched_calls))
      .Num("sched.share", Ratio(sched_ns, sums.run_ns))
      .Num("sched.balance_ns_per_tick",
           Ratio(static_cast<double>(balance_t.total_ns), static_cast<double>(balance_t.count)))
      .Num("sinks.trace_records_per_cell", sums.trace_records / n)
      .Num("sinks.trace_ns_per_record", per_record(trace_t))
      .Num("sinks.decision_records_per_cell", sums.decision_records / n)
      .Num("sinks.decision_ns_per_record", per_record(decision_t))
      .Num("sinks.attached_over_detached",
           Ratio(Median(sums.attached_ns), Median(sums.detached_ns)))
      .Num("runner.fold_ms", hits.fold_ms)
      .Num("runner.json_ms", hits.json_ms)
      .Num("runner.rounds", static_cast<double>(hits.rounds))
      .Num("trace.overhead_ratio",
           Ratio(Median(sums.traced_cell_ns), Median(sums.untraced_cell_ns)))
      .Num("trace.scope_ns", scope_ns)
      .Num("trace.cells", static_cast<double>(sums.cells));

  JsonOut self;
  for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
    const Tracer::Totals& t = tracer.totals(static_cast<Layer>(l));
    self.Raw(LayerName(static_cast<Layer>(l)),
             "[" + JsonNumber(static_cast<double>(t.count)) + "," +
                 JsonNumber(static_cast<double>(t.self_ns) / 1e6) + "]");
  }
  const std::string spans_path = options.out_dir + "/spans-" + options.workload + "-" +
                                 std::to_string(options.seed) + ".csv";
  EmitCommon(options, calib_before, &out);
  out.Raw("layers", layers.Close())
      .Raw("self_ms", self.Close())
      .Str("spans", tracer.WriteCsv(spans_path) ? spans_path : "")
      .Num("spans_kept", static_cast<double>(tracer.spans().size()))
      .Num("spans_dropped", static_cast<double>(tracer.dropped()));
  checks.Emit(&out);
  return out.Close();
}

// --- Open workload (OpenSweepRunner) ----------------------------------------

std::unique_ptr<ArrivalProcess> MakeOpenArrivals(const OpenSweepSpec& spec, ArrivalKind kind,
                                                 double interarrival_s) {
  // Mirrors the open runner's calibration: on/off bursts run burst_factor
  // times faster and the off phase restores the long-run rate.
  if (kind == ArrivalKind::kPoisson) {
    return std::make_unique<PoissonProcess>(Seconds(interarrival_s), spec.app_weights);
  }
  OnOffProcess::Params params;
  const double on_interarrival_s = interarrival_s / spec.onoff_burst_factor;
  const double mean_on_s = spec.onoff_burst_arrivals * on_interarrival_s;
  params.on_interarrival = Seconds(on_interarrival_s);
  params.mean_on = Seconds(mean_on_s);
  params.mean_off = Seconds((spec.onoff_burst_factor - 1.0) * mean_on_s);
  return std::make_unique<OnOffProcess>(params, spec.app_weights);
}

void CheckOpenCell(const OpenSystemResult& r, const std::string& what, Checks* checks) {
  ++checks->attempted;
  if (!r.littles.ok) {
    checks->Fail(what + ": Little's law off by " + JsonNumber(r.littles.relative_error));
  } else if (r.completed != r.admitted) {
    checks->Fail(what + ": admitted jobs did not all complete");
  }
}

// Jobs per open cell: long enough that a cell is ~100 ms of host time.
constexpr size_t kOpenJobsPerCell = 240;

std::string RunOpen(const RunOptions& options) {
  OpenSweepSpec spec;
  std::string error;
  const std::string text =
      "opensys;count=" + std::to_string(kOpenJobsPerCell) + ";seed=" + std::to_string(options.seed);
  if (!ParseOpenSweepSpec(text, &spec, &error)) {
    throw std::runtime_error("bad open spec: " + error);
  }
  if (options.probe_setup) {
    // The open runner's first act; the first cell starts right after.
    MeanServiceDemandSeconds(spec.apps, spec.app_weights);
    ReportReady();
  }
  const double calib_before = CalibrationMs();
  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  Checks checks;
  JsonOut out;

  if (!options.trace) {
    std::vector<CellRow> rows;
    std::vector<double> pass_s;
    std::vector<double> hit_ms;
    OpenSweepResult last;
    CpuRotation cpus;
    while (pass_s.empty() || NowNs() < deadline) {
      // The runner calls `progress` after each cell (one worker), so cell
      // time is the gap between calls; the first gap also holds the demand
      // probe, timed separately and taken out.
      const int64_t probe_start = NowNs();
      MeanServiceDemandSeconds(spec.apps, spec.app_weights);
      const int64_t probe_ns = NowNs() - probe_start;
      std::vector<double> gaps;
      int64_t last_ns = 0;
      int64_t hit_ns = 0;
      OpenSweepRunnerOptions runner;
      runner.jobs = 1;
      runner.progress = [&](size_t, size_t) {
        gaps.push_back(static_cast<double>(NowNs() - last_ns));
        // One hit sample per cell from the previous pass's stored cells,
        // kept out of the next cell's gap.
        if (!last.cells.empty()) {
          const int64_t t0 = NowNs();
          const std::string doc = last.ToJson();
          const int64_t took = NowNs() - t0;
          hit_ns += took;
          hit_ms.push_back(static_cast<double>(took) / 1e6 /
                           static_cast<double>(last.cells.size()));
        }
        cpus.Next();
        last_ns = NowNs();
      };
      cpus.Next();
      const int64_t p0 = NowNs();
      last_ns = p0 + probe_ns;
      OpenSweepResult result = OpenSweepRunner(runner).Run(spec);
      pass_s.push_back(static_cast<double>(NowNs() - p0 - hit_ns) / 1e9);
      for (size_t i = 0; i < result.cells.size() && i < gaps.size(); ++i) {
        const OpenSystemResult& r = result.cells[i].result;
        rows.push_back(CellRow{gaps[i] / 1e6, ToSeconds(r.end_time),
                               static_cast<double>(r.completed), 0.0});
        CheckOpenCell(r,
                      PolicyKindCliName(result.cells[i].policy) + " rho " +
                          JsonNumber(result.cells[i].rho),
                      &checks);
      }
      ++checks.attempted;
      if (!result.AllLittlesLawOk()) {
        checks.Fail("AllLittlesLawOk() is false");
      }
      last = std::move(result);
    }
    cpus.Restore();
    // Answering from stored cells: the open runner has no probe seam, so
    // this is the document assembly over the recorded cells.
    while (hit_ms.size() < 20) {
      const int64_t t0 = NowNs();
      const std::string doc = last.ToJson();
      hit_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6 /
                       static_cast<double>(last.cells.size()));
    }
    EmitCommon(options, calib_before, &out);
    out.Raw("cells", CellRowsJson(rows))
        .Raw("passes_s", NumArray(pass_s))
        .Raw("hit_ms_per_cell", NumArray(hit_ms));
    checks.Emit(&out);
    return out.Close();
  }

  // Traced: the open runner's cells, one by one, through the same public
  // pieces it uses (arrival plan, admission, OpenSystemDriver), timing the
  // plan and the run; each cell runs again without spans for the overhead.
  Tracer tracer;
  const int64_t probe0 = NowNs();
  const double mean_demand_s = MeanServiceDemandSeconds(spec.apps, spec.app_weights);
  const double demand_probe_ms = static_cast<double>(NowNs() - probe0) / 1e6;
  const double capacity =
      static_cast<double>(spec.machine.num_processors) * spec.machine.processor_speed;
  double events = 0, scheduled = 0, cancelled = 0, pool_high_water = 0, jobs = 0;
  double littles_max = 0.0;
  std::vector<double> traced_ns, untraced_ns;
  ReplayTiming queue_replay;
  CpuRotation cpus;
  // The open runner's cell order (arrival-major, rho, policy), again and
  // again until the time is up.
  struct OpenCell {
    size_t arrival;
    double rho;
    PolicyKind policy;
  };
  std::vector<OpenCell> grid;
  for (size_t a = 0; a < spec.arrivals.size(); ++a) {
    for (double rho : spec.rhos) {
      for (PolicyKind policy : spec.policies) {
        grid.push_back(OpenCell{a, rho, policy});
      }
    }
  }
  size_t cells = 0;
  while (cells == 0 || NowNs() < deadline) {
    const OpenCell& cell = grid[cells % grid.size()];
    const uint64_t seed =
        DeriveOpenCellSeed(spec.root_seed, cell.arrival, RhoPermille(cell.rho), 0);
    const double interarrival_s = mean_demand_s / (cell.rho * capacity);
    const auto run_cell = [&](Tracer* t, EventQueue::Stats* stats) {
      std::vector<ArrivalPlanEntry> plan;
      {
        Tracer::Scope scope(t, Layer::kPlan);
        std::unique_ptr<ArrivalProcess> process =
            MakeOpenArrivals(spec, spec.arrivals[cell.arrival], interarrival_s);
        plan = GenerateArrivals(*process, seed, spec.jobs_per_cell, 0);
      }
      std::unique_ptr<AdmissionController> admission =
          MakeAdmissionController(spec.mpl_cap, spec.max_queue);
      Tracer::Scope scope(t, Layer::kRun);
      OpenSystemDriver driver(spec.machine, cell.policy, spec.apps, std::move(plan),
                              admission.get(), seed, spec.open);
      OpenSystemResult r = driver.Run();
      *stats = driver.engine().event_queue_stats();
      return r;
    };
    tracer.set_cell(static_cast<uint32_t>(cells));
    cpus.Next();
    EventQueue::Stats stats;
    int64_t t0 = NowNs();
    OpenSystemResult r;
    {
      Tracer::Scope scope(&tracer, Layer::kCell);
      r = run_cell(&tracer, &stats);
    }
    traced_ns.push_back(static_cast<double>(NowNs() - t0));
    EventQueue::Stats untraced_stats;
    t0 = NowNs();
    run_cell(nullptr, &untraced_stats);
    untraced_ns.push_back(static_cast<double>(NowNs() - t0));
    {
      Tracer::Scope scope(&tracer, Layer::kQueueReplay);
      const ReplayTiming t = ReplayQueue(stats, seed);
      queue_replay.calls += t.calls;
      queue_replay.ns += t.ns;
    }
    CheckOpenCell(r, PolicyKindCliName(cell.policy) + " rho " + JsonNumber(cell.rho), &checks);
    littles_max = std::max(littles_max, r.littles.relative_error);
    ++cells;
    events += static_cast<double>(stats.run);
    scheduled += static_cast<double>(stats.scheduled);
    cancelled += static_cast<double>(stats.cancelled);
    pool_high_water += static_cast<double>(stats.pool_high_water);
    jobs += static_cast<double>(r.completed);
  }
  cpus.Restore();
  const double n = static_cast<double>(std::max<size_t>(cells, 1));
  const double run_ns = static_cast<double>(tracer.totals(Layer::kRun).total_ns);
  const double plan_ns = static_cast<double>(tracer.totals(Layer::kPlan).total_ns);
  JsonOut layers;
  layers.Num("sim.events_per_cell", events / n)
      .Num("sim.cancelled_frac", Ratio(cancelled, scheduled))
      .Num("sim.pool_high_water", pool_high_water / n)
      .Num("sim.host_ns_per_event", Ratio(run_ns, events))
      .Num("sim.queue_ns_per_event_replay",
           Ratio(static_cast<double>(queue_replay.ns), static_cast<double>(queue_replay.calls)))
      .Num("engine.run_ms_per_cell", run_ns / n / 1e6)
      .Num("opensys.demand_probe_ms", demand_probe_ms)
      .Num("opensys.plan_ms_per_cell", plan_ns / n / 1e6)
      .Num("opensys.host_us_per_job", Ratio(run_ns / 1e3, jobs))
      .Num("opensys.littles_rel_err_max", littles_max)
      .Num("trace.overhead_ratio", Ratio(Median(traced_ns), Median(untraced_ns)))
      .Num("trace.scope_ns", Tracer::ScopeCostNs())
      .Num("trace.cells", static_cast<double>(cells));
  JsonOut self;
  for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
    const Tracer::Totals& t = tracer.totals(static_cast<Layer>(l));
    self.Raw(LayerName(static_cast<Layer>(l)),
             "[" + JsonNumber(static_cast<double>(t.count)) + "," +
                 JsonNumber(static_cast<double>(t.self_ns) / 1e6) + "]");
  }
  const std::string spans_path = options.out_dir + "/spans-" + options.workload + "-" +
                                 std::to_string(options.seed) + ".csv";
  EmitCommon(options, calib_before, &out);
  out.Raw("layers", layers.Close())
      .Raw("self_ms", self.Close())
      .Str("spans", tracer.WriteCsv(spans_path) ? spans_path : "")
      .Num("spans_kept", static_cast<double>(tracer.spans().size()))
      .Num("spans_dropped", static_cast<double>(tracer.dropped()));
  checks.Emit(&out);
  return out.Close();
}

}  // namespace

RunResult RunClosedCell(const MachineConfig& machine, PolicyKind policy,
                        const std::vector<AppProfile>& jobs, uint64_t seed,
                        const EngineOptions& engine_options, const CellOptions& options,
                        CellCounts* counts) {
  MetricsRegistry metrics;
  RingTrace ring;
  DecisionTrace decisions;
  JobSpanCollector spans;
  TimedTraceSink timed_ring(&ring, options.tracer);
  TimedDecisionSink timed_decisions(&decisions, options.tracer);

  const int64_t t0 = NowNs();
  std::unique_ptr<Engine> engine;
  {
    Tracer::Scope build(options.tracer, Layer::kBuild);
    std::unique_ptr<Policy> p = MakePolicy(policy);
    if (options.tracer != nullptr) {
      p = std::make_unique<TimedPolicy>(std::move(p), options.tracer);
    }
    engine = std::make_unique<Engine>(machine, std::move(p), seed, engine_options);
    if (options.attach_sinks) {
      engine->SetMetrics(&metrics);
      engine->SetSpanCollector(&spans);
      if (options.tracer != nullptr) {
        engine->SetTraceSink(&timed_ring);
        engine->SetDecisionSink(&timed_decisions);
      } else {
        engine->SetTraceSink(&ring);
        engine->SetDecisionSink(&decisions);
      }
    }
    for (const AppProfile& profile : jobs) {
      engine->SubmitJob(profile, 0);
    }
  }
  const int64_t t1 = NowNs();
  RunResult result;
  {
    Tracer::Scope run(options.tracer, Layer::kRun);
    result.makespan = engine->Run();
  }
  const int64_t t2 = NowNs();
  result.events = engine->event_queue_stats().run;
  for (JobId id = 0; id < engine->job_count(); ++id) {
    result.jobs.push_back(JobResult{engine->job_name(id), engine->job_stats(id)});
  }
  if (counts != nullptr) {
    counts->queue = engine->event_queue_stats();
    counts->build_ns = t1 - t0;
    counts->run_ns = t2 - t1;
    counts->trace_records = ring.total_recorded();
    counts->decision_records = decisions.total_recorded();
    const Counter* chunks = metrics.FindCounter("engine.chunks");
    const Counter* dispatches = metrics.FindCounter("engine.dispatches");
    counts->chunks = chunks != nullptr ? static_cast<uint64_t>(chunks->value()) : 0;
    counts->dispatches = dispatches != nullptr ? static_cast<uint64_t>(dispatches->value()) : 0;
  }
  if (options.trace_out != nullptr) {
    *options.trace_out = ring.Events();
  }
  return result;
}

double IdentityRelError(const RunResult& run) {
  double worst = 0.0;
  for (const JobResult& job : run.jobs) {
    const JobStats& s = job.stats;
    const double parts = s.useful_work_s + s.reload_stall_s + s.steady_stall_s + s.switch_s +
                         s.waste_s;
    const double scale = std::max(std::abs(s.alloc_integral_s), 1e-12);
    worst = std::max(worst, std::abs(s.alloc_integral_s - parts) / scale);
  }
  return worst;
}

bool RunWorkload(const RunOptions& options, std::string* report_json, std::string* error) {
  try {
    if (options.workload == "fig5-flat") {
      // fig5 with its replications made adaptive from one: each round then
      // holds one replication of all 24 experiments (the preset's first
      // round holds three). The first two rounds always hold all of them;
      // the cells, seeds and stopping rule past three replications are the
      // preset's. The goldens pin mixes 2 and 5 at one replication.
      *report_json = RunClosed(
          options, "fig5;reps=1-5;seed=" + std::to_string(options.seed), false, 2,
          {{1000, "fig5;mixes=2,5;reps=1", "sweep_fig5_seed1000.json"},
           {7777, "fig5;mixes=2,5;reps=1;seed=7777", "sweep_fig5_seed7777.json"}});
    } else if (options.workload == "mq-numa-observed") {
      // The mq machine and policies over all six mixes, one replication per
      // pass: the preset's two mixes split its cells half and half between a
      // short and a long mode, where a median jumps with the seed. The golden
      // (the bare preset) is regenerated with the sinks attached.
      *report_json = RunClosed(
          options, "mq;mixes=1,2,3,4,5,6;reps=1;seed=" + std::to_string(options.seed), true, 0,
          {{1000, "mq", "sweep_mq_seed1000.json"}});
    } else if (options.workload == "open-stream") {
      *report_json = RunOpen(options);
    } else {
      *error = "unknown workload: " + options.workload;
      return false;
    }
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
  return true;
}

std::string VerifyServeDocuments(const std::vector<std::pair<std::string, std::string>>& requests,
                                 size_t jobs) {
  std::mutex memo_mu;
  std::map<std::string, RunResult> memo;  // by cell key
  Checks checks;
  for (const auto& [text, doc_path] : requests) {
    ++checks.attempted;
    SweepSpec spec;
    std::string error;
    if (!ParseSweepSpec(text, &spec, &error)) {
      checks.Fail("bad spec " + text + ": " + error);
      continue;
    }
    SweepRunnerOptions runner;
    runner.jobs = jobs;
    const auto key_of = [&spec](const SweepCellRef& ref) {
      return CellKey(spec, ref.policy, ref.mix_number, ref.replication, ref.seed);
    };
    runner.probe_cell = [&](const SweepCellRef& ref, RunResult* out) {
      std::lock_guard<std::mutex> lock(memo_mu);
      auto it = memo.find(key_of(ref));
      if (it == memo.end()) {
        return false;
      }
      *out = it->second;
      return true;
    };
    runner.store_cell = [&](const SweepCellRef& ref, const RunResult& result) {
      const std::string key = key_of(ref);
      std::lock_guard<std::mutex> lock(memo_mu);
      memo[key] = result;
    };
    const std::string doc = SweepRunner(runner).Run(spec).ToJson() + "\n";
    std::string served;
    if (!ReadFile(doc_path, &served)) {
      checks.Fail("cannot read " + doc_path);
    } else if (served != doc) {
      checks.Fail("served document differs from in-process run: " + text);
    }
  }
  JsonOut out;
  checks.Emit(&out);
  return out.Close();
}

std::string ReplayServeLayers(const std::vector<std::string>& specs, const std::string& cache_dir,
                              const std::string& scratch_dir) {
  ResultCacheOptions cache_options;
  cache_options.dir = cache_dir;
  ResultCache cache(cache_options);
  ResultCacheOptions scratch_options;
  scratch_options.dir = scratch_dir;
  ResultCache scratch(scratch_options);
  double keys = 0, key_ns = 0, probes = 0, probe_ns = 0, stores = 0, store_ns = 0;
  double parses = 0, parse_ns = 0;
  for (const std::string& text : specs) {
    SweepSpec spec;
    std::string error;
    if (!ParseSweepSpec(text, &spec, &error)) {
      continue;
    }
    for (const WorkloadMix& mix : spec.mixes) {
      for (PolicyKind policy : spec.policies) {
        for (size_t rep = 0; rep < spec.replication.max_replications; ++rep) {
          const uint64_t seed = DeriveCellSeed(spec.root_seed, mix.number, rep);
          int64_t t0 = NowNs();
          const std::string key = CellKey(spec, policy, mix.number, rep, seed);
          key_ns += static_cast<double>(NowNs() - t0);
          ++keys;
          RunResult result;
          t0 = NowNs();
          const bool hit = cache.Probe(key, &result);
          probe_ns += static_cast<double>(NowNs() - t0);
          ++probes;
          if (!hit) {
            continue;
          }
          CellEntryMeta meta;
          meta.policy = PolicyKindCliName(policy);
          meta.mix = mix.number;
          meta.replication = rep;
          meta.seed = seed;
          t0 = NowNs();
          scratch.Store(key, meta, result);
          store_ns += static_cast<double>(NowNs() - t0);
          ++stores;
          std::string entry;
          if (ReadFile(cache_dir + "/" + ResultCache::EntryFileName(key), &entry)) {
            JsonValue value;
            t0 = NowNs();
            ParseJson(entry, &value, &error);
            parse_ns += static_cast<double>(NowNs() - t0);
            ++parses;
          }
        }
      }
    }
  }
  JsonOut out;
  out.Num("serve.cellkey_us", Ratio(key_ns, keys) / 1e3)
      .Num("serve.probe_us_per_cell", Ratio(probe_ns, probes) / 1e3)
      .Num("serve.store_us_per_cell", Ratio(store_ns, stores) / 1e3)
      .Num("serve.jsonv_parse_us_per_entry", Ratio(parse_ns, parses) / 1e3);
  return out.Close();
}

}  // namespace perfbench
