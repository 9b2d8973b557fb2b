#include "src/engine/accounting.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/check.h"

namespace affsched {

namespace {

// The engine.* counter each scheduling event bumps; nullptr for the kinds
// whose totals JobStats holds.
const char* EventCounterName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kJobArrival:
      return "engine.job_arrivals";
    case TraceEventKind::kJobCompletion:
      return "engine.job_completions";
    case TraceEventKind::kSwitchStart:
      return "engine.switches";
    case TraceEventKind::kResume:
      return "engine.resumes";
    case TraceEventKind::kPreempt:
      return "engine.preempts";
    case TraceEventKind::kHold:
      return "engine.holds";
    case TraceEventKind::kYield:
      return "engine.yields";
    case TraceEventKind::kRelease:
      return "engine.releases";
    case TraceEventKind::kThreadComplete:
      return "engine.thread_completions";
    case TraceEventKind::kDispatch:
    case TraceEventKind::kDeadlineMiss:
      return nullptr;
  }
  return nullptr;
}

// The policy.* counter of the policy hook behind each decision site;
// nullptr for sites that are not a hook.
const char* DecisionCounterName(DecisionSite site) {
  switch (site) {
    case DecisionSite::kJobArrival:
      return "policy.on_arrival";
    case DecisionSite::kJobDeparture:
      return "policy.on_departure";
    case DecisionSite::kProcessorAvailable:
      return "policy.on_available";
    case DecisionSite::kRequest:
      return "policy.on_request";
    case DecisionSite::kQuantumExpiry:
      return "policy.on_quantum";
    case DecisionSite::kBalanceTick:
      return "policy.on_balance";
    case DecisionSite::kUnknown:
    case DecisionSite::kReconcile:
      return nullptr;
  }
  return nullptr;
}

// A JobStats duration as the whole nanoseconds the *_ns metrics report.
double WholeNanoseconds(double seconds) { return std::round(seconds * 1e9); }

}  // namespace

void Accounting::SetMetrics(MetricsRegistry* registry) {
  AFF_CHECK_MSG(!core_.running, "SetMetrics must be called before Run()");
  metrics_ = registry;
  const auto counter = [registry](const char* name) {
    return registry != nullptr && name != nullptr ? registry->FindOrCreateCounter(name) : nullptr;
  };
  const auto histogram = [registry](const char* name) {
    return registry != nullptr ? registry->FindOrCreateHistogram(name, DefaultLatencyBucketsUs())
                               : nullptr;
  };
  for (size_t kind = 0; kind < kNumTraceEventKinds; ++kind) {
    events_[kind] = counter(EventCounterName(static_cast<TraceEventKind>(kind)));
  }
  for (size_t site = 0; site < kNumDecisionSites; ++site) {
    decisions_[site] = counter(DecisionCounterName(static_cast<DecisionSite>(site)));
  }
  assignments_ = counter("policy.assignments");
  repartitions_ = counter("policy.repartitions");
  chunks_ = counter("engine.chunks");
  reload_stall_us_ = histogram("engine.reload_stall_us");
  chunk_wall_us_ = histogram("engine.chunk_wall_us");
}

void Accounting::FinalizeMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  const auto add = [this](const std::string& name, double value) {
    metrics_->FindOrCreateCounter(name)->Add(value);
  };
  add("bus.transfers", core_.machine.bus().total_transfers());
  metrics_->FindOrCreateGauge("bus.peak_utilization")
      ->Set(core_.machine.bus().peak_utilization());
  metrics_->FindOrCreateGauge("bus.utilization")
      ->Set(core_.machine.bus().UtilizationAt(core_.queue.now()));

  JobStats total;
  for (const JobState& js : core_.jobs) {
    const JobStats& st = js.job->stats();
    total.Accumulate(st);
    const std::string prefix =
        "engine.job." + js.job->name() + "#" + std::to_string(js.job->id());
    add(prefix + ".reallocations", static_cast<double>(st.reallocations));
    add(prefix + ".reload_stall_ns", WholeNanoseconds(st.reload_stall_s));
  }
  add("engine.dispatches", static_cast<double>(total.reallocations));
  add("engine.dispatches_affine", static_cast<double>(total.affinity_dispatches));
  add("engine.reload_stall_ns", WholeNanoseconds(total.reload_stall_s));
  add("engine.steady_stall_ns", WholeNanoseconds(total.steady_stall_s));
  add("engine.reload_llc_ns", WholeNanoseconds(total.reload_llc_s));
  add("engine.reload_remote_ns", WholeNanoseconds(total.reload_remote_s));
  add("engine.waste_ns", WholeNanoseconds(total.waste_s));
  add("engine.switch_time_ns", WholeNanoseconds(total.switch_s));
  // By distance tier. A same-processor pull is a local-queue dispatch, not a
  // steal, so engine.steals.same_core stays 0.
  for (size_t tier = 0; tier < kNumDistanceTiers; ++tier) {
    add(std::string("engine.migrations.") + DistanceTierName(tier),
        static_cast<double>(total.migrations[tier]));
    add(std::string("engine.steals.") + DistanceTierName(tier),
        static_cast<double>(total.steals[tier]));
  }
  add("engine.balance_migrations", static_cast<double>(total.balance_migrations));
  add("engine.deadline_misses", static_cast<double>(total.deadline_misses));
  add("engine.tardiness_ns", WholeNanoseconds(total.tardiness_s));
  metrics_->FindOrCreateGauge("engine.active_jobs")
      ->Set(static_cast<double>(core_.active_jobs.size()));
  // Affinity efficiency: how much of the machine time jobs consumed went to
  // rebuilding cache context, and how often tasks landed on their context.
  metrics_->FindOrCreateGauge("engine.affinity.reload_transient_fraction")
      ->Set(total.ReloadTransientFraction());
  metrics_->FindOrCreateGauge("engine.affinity.affine_fraction")->Set(total.AffinityFraction());
}

void Accounting::SetSpanCollector(JobSpanCollector* spans) {
  AFF_CHECK_MSG(!core_.running, "SetSpanCollector must be called before Run()");
  spans_ = spans;
}

void Accounting::Note(TraceEventKind kind, size_t proc, JobId job, CacheOwner worker,
                      bool affine) {
  if (Counter* counter = events_[static_cast<size_t>(kind)]; counter != nullptr) {
    counter->Add();
  }
  if (core_.trace != nullptr) {
    core_.trace->Record(TraceEvent{.when = core_.queue.now(),
                                   .kind = kind,
                                   .proc = proc,
                                   .job = job,
                                   .worker = worker,
                                   .affine = affine});
  }
}

void Accounting::NoteDecision(DecisionSite site, const PolicyDecision& decision) {
  if (Counter* counter = decisions_[static_cast<size_t>(site)]; counter != nullptr) {
    counter->Add();
  }
  if (assignments_ != nullptr && !decision.assignments.empty()) {
    assignments_->Add(static_cast<double>(decision.assignments.size()));
  }
  if (repartitions_ != nullptr && decision.targets.has_value()) {
    repartitions_->Add();
  }
}

void Accounting::NoteJobArrival(JobId id) {
  Note(TraceEventKind::kJobArrival, SIZE_MAX, id);
  if (spans_ != nullptr) {
    const JobState& js = core_.job_state(id);
    spans_->OnArrival(id, core_.queue.now(), js.job->stats().queue_wait_s);
  }
}

void Accounting::NoteJobCompletion(JobId id) {
  Note(TraceEventKind::kJobCompletion, SIZE_MAX, id);
  JobState& js = core_.job_state(id);
  const RtParams& rt = js.profile->rt;
  if (rt.Active()) {
    // The deadline is relative to service start (stats().arrival); open-system
    // queue wait is accounted separately, matching the sojourn the rt sweep
    // compares against.
    JobStats& st = js.job->stats();
    const SimTime deadline = st.arrival + Seconds(rt.deadline_s);
    const SimTime now = core_.queue.now();
    if (now > deadline) {
      st.deadline_misses = 1;
      st.tardiness_s = ToSeconds(now - deadline);
      Note(TraceEventKind::kDeadlineMiss, SIZE_MAX, id);
    }
  }
  if (spans_ != nullptr) {
    spans_->OnCompletion(id, core_.queue.now());
  }
}

void Accounting::ChargeChunk(JobState& js, SimDuration work_done, SimDuration reload_stall,
                             SimDuration steady_stall) {
  JobStats& st = js.job->stats();
  st.useful_work_s += ToSeconds(core_.machine.config().ComputeTime(work_done));
  st.reload_stall_s += ToSeconds(reload_stall);
  st.steady_stall_s += ToSeconds(steady_stall);
  // Worst single-chunk reload transient: the latency spike partitioning
  // exists to bound.
  st.worst_reload_s = std::max(st.worst_reload_s, ToSeconds(reload_stall));
  if (chunks_ != nullptr) {
    chunks_->Add();
    chunk_wall_us_->Observe(ToMicroseconds(core_.machine.config().ComputeTime(work_done) +
                                           reload_stall + steady_stall));
    if (reload_stall > 0) {
      reload_stall_us_->Observe(ToMicroseconds(reload_stall));
    }
  }
}

void Accounting::ChargeReloadTiers(JobState& js, SimDuration reload_llc,
                                   SimDuration reload_remote) {
  JobStats& st = js.job->stats();
  st.reload_llc_s += ToSeconds(reload_llc);
  st.reload_remote_s += ToSeconds(reload_remote);
}

void Accounting::ChargeSwitch(JobState& js) {
  js.job->stats().switch_s += ToSeconds(core_.machine.config().SwitchCost());
}

void Accounting::ChargeWaste(JobState& js, SimDuration held) {
  js.job->stats().waste_s += ToSeconds(held);
}

void Accounting::RecordDispatch(JobState& js, size_t proc, bool affine, size_t tier) {
  if (spans_ != nullptr) {
    spans_->OnDispatch(js.job->id(), proc, core_.queue.now(), tier, affine);
  }
  JobStats& st = js.job->stats();
  st.reallocations++;
  if (affine) {
    st.affinity_dispatches++;
  }
  if (tier != kNoMigrationTier) {
    AFF_CHECK(tier < kNumDistanceTiers);
    st.migrations[tier]++;
  }
}

void Accounting::RecordSteal(JobState& js, size_t tier) {
  AFF_CHECK(tier > 0 && tier < kNumDistanceTiers);
  js.job->stats().steals[tier]++;
}

void Accounting::RecordBalanceMigration(JobState& js) {
  js.job->stats().balance_migrations++;
}

void Accounting::UpdateAllocIntegral(JobId id) {
  JobState& js = core_.job_state(id);
  if (js.job->stats().completion >= 0) {
    return;  // frozen at completion
  }
  const double dt = ToSeconds(core_.queue.now() - js.alloc_update);
  js.job->stats().alloc_integral_s += static_cast<double>(js.allocation) * dt;
  js.alloc_update = core_.queue.now();
}

void Accounting::UpdateCredit(JobId id) {
  JobState& js = core_.job_state(id);
  js.credit = core_.Priority(id);
  js.credit_update = core_.queue.now();
}

void Accounting::ChangeAllocation(JobId id, int delta) {
  JobState& js = core_.job_state(id);
  UpdateCredit(id);
  UpdateAllocIntegral(id);
  AFF_CHECK(delta >= 0 || js.allocation >= static_cast<size_t>(-delta));
  js.allocation = static_cast<size_t>(static_cast<long>(js.allocation) + delta);
}

void Accounting::RecordParallelism(JobId id) {
  JobState& js = core_.job_state(id);
  if (js.par_hist == nullptr) {
    return;
  }
  const double dt = ToSeconds(core_.queue.now() - js.par_update);
  if (dt > 0.0) {
    js.par_hist->Add(js.running, dt);
  }
  js.par_update = core_.queue.now();
}

void Accounting::SetRunning(size_t proc, CacheOwner worker) {
  ProcState& ps = core_.procs[proc];
  AFF_CHECK((worker == kNoOwner) != (ps.running == kNoOwner));
  Worker& w = core_.worker(worker != kNoOwner ? worker : ps.running);
  JobState& js = core_.job_state(w.job);
  RecordParallelism(w.job);
  if (worker != kNoOwner) {
    w.settled_debt = js.invalidation_debt;  // earlier writes never reached its cache
    js.running++;
  } else {
    core_.machine.Invalidate(core_.queue.now(), proc, w.id, core_.TakeOwed(w));
    js.running--;
  }
  ps.running = worker;
#ifndef NDEBUG
  // The count stands in for a scan of every processor; debug builds run it.
  AFF_CHECK(std::count_if(core_.procs.begin(), core_.procs.end(), [&](const ProcState& other) {
              return other.running != kNoOwner && core_.worker(other.running).job == w.job;
            }) == static_cast<long>(js.running));
#endif
}

}  // namespace affsched
