// The benchmark's simulating workloads and the serve-side helpers, as the
// perfbench_driver binary runs them. Each entry point returns one JSON
// object (raw samples, check results, per-layer numbers); run.py turns it
// into the benchmark's metrics.

#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "driver/layers.h"
#include "src/measure/experiment.h"
#include "src/runner/sweep.h"

namespace perfbench {

struct RunOptions {
  std::string workload;  // fig5-flat | mq-numa-observed | open-stream
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Print "ready" when the first cell is about to start, then exit: the
  // set-up time probe.
  bool probe_setup = false;
  std::string golden_dir;  // the checkout's tests/golden
  std::string out_dir;     // where the traced run writes its spans
};

// Runs a simulating workload; false (with `error`) on bad options.
bool RunWorkload(const RunOptions& options, std::string* report_json, std::string* error);

// What one closed cell counted, beyond its RunResult.
struct CellCounts {
  affsched::EventQueue::Stats queue;
  int64_t build_ns = 0;  // Engine construction + job submission
  int64_t run_ns = 0;    // Engine::Run
  uint64_t trace_records = 0;
  uint64_t decision_records = 0;
  uint64_t chunks = 0;      // engine.chunks (needs attach_sinks)
  uint64_t dispatches = 0;  // engine.dispatches (needs attach_sinks)
};

struct CellOptions {
  // Attach every engine sink: MetricsRegistry, RingTrace, DecisionTrace and
  // JobSpanCollector.
  bool attach_sinks = false;
  // Wrap the policy and the virtual sinks in timing decorators.
  Tracer* tracer = nullptr;
  // Receives the RingTrace's events (needs attach_sinks).
  std::vector<affsched::TraceEvent>* trace_out = nullptr;
};

// One closed cell, built exactly as affsched::RunOnce builds it, plus the
// attachments in `options`. `counts` may be null.
affsched::RunResult RunClosedCell(const affsched::MachineConfig& machine,
                                  affsched::PolicyKind policy,
                                  const std::vector<affsched::AppProfile>& jobs, uint64_t seed,
                                  const affsched::EngineOptions& engine,
                                  const CellOptions& options, CellCounts* counts);

// Largest relative error, over the run's jobs, of the processor-seconds
// identity alloc_integral = useful + reload + steady + switch + waste.
double IdentityRelError(const affsched::RunResult& run);

// Runs each (spec text, document path) request through an in-process
// SweepRunner and compares the document byte for byte. Cells shared between
// requests are simulated once.
std::string VerifyServeDocuments(const std::vector<std::pair<std::string, std::string>>& requests,
                                 size_t jobs);

// Replays the serve layer's calls on a daemon's cache directory for every
// cell of each spec: CellKey, ResultCache::Probe, ResultCache::Store (into
// `scratch_dir`) and jsonv ParseJson of the entry file.
std::string ReplayServeLayers(const std::vector<std::string>& specs, const std::string& cache_dir,
                              const std::string& scratch_dir);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
