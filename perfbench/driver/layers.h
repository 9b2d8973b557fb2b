// Outside-in instrumentation for the simulator benchmark.
//
// Every measurement here wraps or replays a public seam of the simulator;
// nothing inside src/ is modified. The pieces:
//
//   Tracer             spans (layer, start, end, parent, cell) kept in memory
//                      and written out at the end, with per-layer total and
//                      self time (a span's duration minus its children's).
//   TimedPolicy        a Policy decorator around MakePolicy(); forwards every
//                      virtual, timing the decision hooks.
//   TimedTraceSink /   decorators around the engine's two virtual sinks.
//   TimedDecisionSink
//   ReplayChunks       drives Machine::ExecuteChunk at a traced cell's
//                      placements, once per chunk the cell executed.
//   ReplayQueue        drives an EventQueue at a traced cell's depth, event
//                      count and cancellation rate.
//
// All of it is single-threaded: traced runs execute cells with one worker.

#ifndef PERFBENCH_DRIVER_LAYERS_H_
#define PERFBENCH_DRIVER_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/machine/machine.h"
#include "src/sched/policy.h"
#include "src/sim/event_queue.h"
#include "src/trace/decision_trace.h"
#include "src/trace/trace.h"

namespace perfbench {

// Monotonic host time in nanoseconds.
int64_t NowNs();

// Peak resident set of this process (VmHWM), in MB; 0 if unreadable.
double PeakRssMb();

// A fixed integer loop, timed: the same work on every run and every commit,
// so its wall time flags a slow or busy host. Milliseconds.
double CalibrationMs();

// Moves every thread of this process, cell by cell, round robin over the
// CPUs the process may use. Host CPUs of a shared machine run at different
// speeds (neighbours, cache sharing); without this a whole run can land on
// one fast or one slow CPU, and runs disagree far more than cells do.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();
  // Puts every thread back on the CPU set the process started with.
  void Restore() const;

 private:
  void PinAll(const std::vector<int>& cpus) const;

  std::vector<int> cpus_;
  size_t next_ = 0;
};

enum class Layer : uint8_t {
  kCell,          // one whole cell, as the runner's run_cell seam sees it
  kBuild,         // Engine construction + job submission (graph building)
  kRun,           // Engine::Run
  kPolicy,        // a Policy decision hook (arrival, departure, request, ...)
  kBalance,       // Policy::OnBalanceTick
  kTraceSink,     // TraceSink::Record
  kDecisionSink,  // DecisionSink::Record
  kChunkReplay,   // Machine::ExecuteChunk replay of one cell
  kQueueReplay,   // EventQueue replay of one cell
  kPlan,          // open-system arrival plan generation
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  uint32_t parent = 0;  // index + 1 of the enclosing kept span; 0 = none
  uint32_t cell = 0;
  Layer layer = Layer::kCell;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  // Keeps the first `max_kept` spans; later ones still feed the totals.
  explicit Tracer(size_t max_kept = 200000) : max_kept_(max_kept) {}

  void set_cell(uint32_t cell) { cell_ = cell; }
  void Begin(Layer layer);
  void End();

  // RAII span; a null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
      if (tracer_ != nullptr) {
        tracer_->Begin(layer);
      }
    }
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->End();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  const Totals& totals(Layer layer) const { return totals_[static_cast<size_t>(layer)]; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  // "layer,cell,parent,start_ns,end_ns" lines, one per kept span.
  bool WriteCsv(const std::string& path) const;

  // Host cost of one empty Scope (two clock reads plus bookkeeping), in ns.
  static double ScopeCostNs();

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
    uint32_t kept;  // index + 1 into spans_, 0 when not kept
  };

  size_t max_kept_;
  uint32_t cell_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  Totals totals_[static_cast<size_t>(Layer::kCount)];
};

// Policy decorator: forwards every virtual of affsched::Policy to `inner`,
// timing the decision hooks (kPolicy, kBalance for OnBalanceTick). With a
// null tracer it is a pure forwarder.
class TimedPolicy : public affsched::Policy {
 public:
  TimedPolicy(std::unique_ptr<affsched::Policy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  affsched::PolicyDecision OnJobArrival(const affsched::SchedView& view,
                                        affsched::JobId job) override;
  affsched::PolicyDecision OnJobDeparture(const affsched::SchedView& view,
                                          affsched::JobId job) override;
  affsched::PolicyDecision OnProcessorAvailable(const affsched::SchedView& view,
                                                size_t proc) override;
  affsched::PolicyDecision OnRequest(const affsched::SchedView& view, affsched::JobId job) override;
  affsched::PolicyDecision OnQuantumExpiry(const affsched::SchedView& view, size_t proc) override;
  affsched::PolicyDecision OnBalanceTick(const affsched::SchedView& view) override;
  uint64_t ColorMask(const affsched::SchedView& view, affsched::JobId job) override;
  affsched::SimDuration YieldDelay() const override { return inner_->YieldDelay(); }
  bool UsesAffinity() const override { return inner_->UsesAffinity(); }
  affsched::SimDuration Quantum() const override { return inner_->Quantum(); }
  affsched::SimDuration BalanceInterval() const override { return inner_->BalanceInterval(); }

 private:
  std::unique_ptr<affsched::Policy> inner_;
  Tracer* tracer_;
};

class TimedTraceSink : public affsched::TraceSink {
 public:
  TimedTraceSink(affsched::TraceSink* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}
  void Record(const affsched::TraceEvent& event) override {
    Tracer::Scope scope(tracer_, Layer::kTraceSink);
    inner_->Record(event);
  }

 private:
  affsched::TraceSink* inner_;
  Tracer* tracer_;
};

class TimedDecisionSink : public affsched::DecisionSink {
 public:
  TimedDecisionSink(affsched::DecisionSink* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  void Record(affsched::DecisionRecord record) override {
    Tracer::Scope scope(tracer_, Layer::kDecisionSink);
    inner_->Record(std::move(record));
  }

 private:
  affsched::DecisionSink* inner_;
  Tracer* tracer_;
};

// Where a worker was put on a processor: the trace's dispatch and resume
// events.
struct Placement {
  affsched::SimTime when = 0;
  size_t proc = 0;
  affsched::CacheOwner owner = affsched::kNoOwner;
  affsched::JobId job = affsched::kInvalidJobId;
};

std::vector<Placement> PlacementsFromTrace(const std::vector<affsched::TraceEvent>& events);

struct ReplayTiming {
  uint64_t calls = 0;
  int64_t ns = 0;
};

// Calls Machine::ExecuteChunk exactly `chunks` times on a fresh machine built
// from `config`, spreading the calls evenly over `placements` in time order;
// each call runs `chunk_quantum` of work with the placed job's working set
// (`job_ws` is indexed by JobId). Siblings are not modelled.
ReplayTiming ReplayChunks(const affsched::MachineConfig& config,
                          const std::vector<Placement>& placements,
                          const std::vector<affsched::WorkingSetParams>& job_ws, uint64_t chunks,
                          affsched::SimDuration chunk_quantum);

// Runs `stats.run` events through a fresh EventQueue held at
// `stats.pool_high_water` pending events, cancelling at the rate
// stats.cancelled / stats.scheduled. `calls` counts events run.
ReplayTiming ReplayQueue(const affsched::EventQueue::Stats& stats, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LAYERS_H_
