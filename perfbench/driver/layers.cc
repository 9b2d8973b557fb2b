#include "driver/layers.h"

#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "src/common/rng.h"

namespace perfbench {

using namespace affsched;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

namespace {

// Receives the calibration loop's result so the loop cannot be discarded.
volatile uint64_t calibration_sink = 0;

}  // namespace

double CalibrationMs() {
  const int64_t start = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 59;
  }
  calibration_sink = acc;
  return static_cast<double>(NowNs() - start) / 1e6;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

void CpuRotation::Restore() const {
  if (cpus_.size() > 1) {
    PinAll(cpus_);
  }
}

void CpuRotation::Next() {
  if (cpus_.size() > 1) {
    PinAll({cpus_[next_++ % cpus_.size()]});
  }
}

void CpuRotation::PinAll(const std::vector<int>& cpus) const {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  // Threads started later (worker pools) inherit their creator's set.
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) {
    sched_setaffinity(0, sizeof(set), &set);
    return;
  }
  while (const dirent* entry = readdir(tasks)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) {
      sched_setaffinity(tid, sizeof(set), &set);
    }
  }
  closedir(tasks);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCell: return "cell";
    case Layer::kBuild: return "engine.build";
    case Layer::kRun: return "engine.run";
    case Layer::kPolicy: return "sched.policy";
    case Layer::kBalance: return "sched.balance";
    case Layer::kTraceSink: return "sinks.trace";
    case Layer::kDecisionSink: return "sinks.decision";
    case Layer::kChunkReplay: return "cache.chunk_replay";
    case Layer::kQueueReplay: return "sim.queue_replay";
    case Layer::kPlan: return "opensys.plan";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::Begin(Layer layer) {
  uint32_t kept = 0;
  const int64_t now = NowNs();
  if (spans_.size() < max_kept_) {
    Span span;
    span.parent = stack_.empty() ? 0 : stack_.back().kept;
    span.cell = cell_;
    span.layer = layer;
    span.start_ns = now;
    spans_.push_back(span);
    kept = static_cast<uint32_t>(spans_.size());
  } else {
    ++dropped_;
  }
  stack_.push_back(Frame{layer, now, 0, kept});
}

void Tracer::End() {
  const int64_t now = NowNs();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = now - frame.start_ns;
  Totals& t = totals_[static_cast<size_t>(frame.layer)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - frame.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (frame.kept != 0) {
    spans_[frame.kept - 1].end_ns = now;
  }
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "layer,cell,parent,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << LayerName(s.layer) << ',' << s.cell << ',' << s.parent << ',' << s.start_ns << ','
        << s.end_ns << '\n';
  }
  return out.good();
}

double Tracer::ScopeCostNs() {
  constexpr int kScopes = 200000;
  Tracer tracer(0);
  const int64_t start = NowNs();
  for (int i = 0; i < kScopes; ++i) {
    Scope scope(&tracer, Layer::kPolicy);
  }
  return static_cast<double>(NowNs() - start) / kScopes;
}

PolicyDecision TimedPolicy::OnJobArrival(const SchedView& view, JobId job) {
  Tracer::Scope scope(tracer_, Layer::kPolicy);
  return inner_->OnJobArrival(view, job);
}

PolicyDecision TimedPolicy::OnJobDeparture(const SchedView& view, JobId job) {
  Tracer::Scope scope(tracer_, Layer::kPolicy);
  return inner_->OnJobDeparture(view, job);
}

PolicyDecision TimedPolicy::OnProcessorAvailable(const SchedView& view, size_t proc) {
  Tracer::Scope scope(tracer_, Layer::kPolicy);
  return inner_->OnProcessorAvailable(view, proc);
}

PolicyDecision TimedPolicy::OnRequest(const SchedView& view, JobId job) {
  Tracer::Scope scope(tracer_, Layer::kPolicy);
  return inner_->OnRequest(view, job);
}

PolicyDecision TimedPolicy::OnQuantumExpiry(const SchedView& view, size_t proc) {
  Tracer::Scope scope(tracer_, Layer::kPolicy);
  return inner_->OnQuantumExpiry(view, proc);
}

PolicyDecision TimedPolicy::OnBalanceTick(const SchedView& view) {
  Tracer::Scope scope(tracer_, Layer::kBalance);
  return inner_->OnBalanceTick(view);
}

uint64_t TimedPolicy::ColorMask(const SchedView& view, JobId job) {
  Tracer::Scope scope(tracer_, Layer::kPolicy);
  return inner_->ColorMask(view, job);
}

std::vector<Placement> PlacementsFromTrace(const std::vector<TraceEvent>& events) {
  std::vector<Placement> placements;
  for (const TraceEvent& e : events) {
    if ((e.kind == TraceEventKind::kDispatch || e.kind == TraceEventKind::kResume) &&
        e.proc != SIZE_MAX && e.worker != kNoOwner && e.job != kInvalidJobId) {
      placements.push_back(Placement{e.when, e.proc, e.worker, e.job});
    }
  }
  return placements;
}

ReplayTiming ReplayChunks(const MachineConfig& config, const std::vector<Placement>& placements,
                          const std::vector<WorkingSetParams>& job_ws, uint64_t chunks,
                          SimDuration chunk_quantum) {
  ReplayTiming timing;
  if (placements.empty() || chunks == 0) {
    return timing;
  }
  Machine machine(config);
  const uint64_t n = placements.size();
  SimTime now = 0;
  const int64_t start = NowNs();
  for (uint64_t k = 0; k < chunks; ++k) {
    const Placement& p = placements[k * n / chunks];
    now = std::max(now, p.when);
    machine.ExecuteChunk(now, p.proc, p.owner, job_ws.at(p.job), chunk_quantum);
    ++timing.calls;
  }
  timing.ns = NowNs() - start;
  return timing;
}

namespace {

// State shared by the replay's event chains. Events capture only a pointer
// to it, as EventQueue callables must be trivially copyable.
struct QueueDriver {
  EventQueue* queue = nullptr;
  Rng rng{0};
  uint64_t remaining = 0;
  double extra_p = 0.0;  // chance a step also arms a timer that gets cancelled
  EventId armed = kInvalidEventId;
};

void Step(QueueDriver* d) {
  if (d->remaining == 0) {
    return;
  }
  --d->remaining;
  d->queue->ScheduleAfter(static_cast<SimDuration>(1 + d->rng.NextBounded(2'000'000)),
                          [d] { Step(d); });
  if (d->extra_p > 0.0 && d->rng.NextBernoulli(d->extra_p)) {
    if (d->armed != kInvalidEventId) {
      d->queue->Cancel(d->armed);
    }
    d->armed = d->queue->ScheduleAfter(Milliseconds(3'600'000), [d] { Step(d); });
  }
}

}  // namespace

ReplayTiming ReplayQueue(const EventQueue::Stats& stats, uint64_t seed) {
  ReplayTiming timing;
  if (stats.run == 0) {
    return timing;
  }
  EventQueue queue;
  QueueDriver driver;
  driver.queue = &queue;
  driver.rng = Rng(seed);
  driver.remaining = stats.run;
  // Each step schedules one successor plus, with probability p, a timer that
  // the next armed step cancels: cancelled / scheduled = p / (1 + p).
  const double cancelled =
      stats.scheduled > 0 ? static_cast<double>(stats.cancelled) / stats.scheduled : 0.0;
  driver.extra_p = std::min(1.0, cancelled < 1.0 ? cancelled / (1.0 - cancelled) : 1.0);
  const size_t depth = std::max<size_t>(1, stats.pool_high_water);
  const int64_t start = NowNs();
  for (size_t i = 0; i < depth; ++i) {
    QueueDriver* d = &driver;
    queue.ScheduleAt(static_cast<SimTime>(driver.rng.NextBounded(2'000'000)), [d] { Step(d); });
  }
  queue.RunAll();
  timing.ns = NowNs() - start;
  timing.calls = queue.stats().run;
  return timing;
}

}  // namespace perfbench
