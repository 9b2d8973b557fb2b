#include "src/engine/engine.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"

namespace affsched {

Engine::Engine(const MachineConfig& machine_config, std::unique_ptr<Policy> policy, uint64_t seed,
               const Options& options)
    : core_(machine_config, std::move(policy), seed, options),
      acct_(core_),
      dispatcher_(core_, acct_),
      alloc_(core_, acct_) {
  core_.view = this;
  dispatcher_.Connect(&alloc_);
  alloc_.Connect(&dispatcher_);
}

JobId Engine::SubmitJob(const AppProfile& profile, SimTime arrival) {
  AFF_CHECK_MSG(!core_.running, "SubmitJob must be called before Run()");
  AFF_CHECK(arrival >= 0);
  return SubmitJobInternal(profile, arrival, arrival, core_.rng.Split());
}

JobId Engine::AdmitJob(const AppProfile& profile, SimTime queued_since, uint64_t graph_seed) {
  AFF_CHECK_MSG(core_.running, "AdmitJob is for mid-run (open-system) submission");
  const SimTime now = core_.queue.now();
  AFF_CHECK(queued_since >= 0 && queued_since <= now);
  return SubmitJobInternal(profile, now, queued_since, Rng(graph_seed));
}

JobId Engine::SubmitJobInternal(const AppProfile& profile, SimTime arrival, SimTime queued_since,
                                Rng graph_rng) {
  const JobId id = static_cast<JobId>(core_.jobs.size());
  JobState js;
  js.profile = std::make_unique<AppProfile>(profile);
  auto graph = js.profile->build_graph(graph_rng);
  js.job = std::make_unique<Job>(id, *js.profile, std::move(graph), arrival);
  js.job->stats().queue_wait_s = ToSeconds(arrival - queued_since);
  if (core_.options.record_parallelism) {
    js.par_hist = std::make_unique<WeightedHistogram>(core_.machine.num_processors());
  }
  core_.jobs.push_back(std::move(js));
  ++core_.jobs_remaining;
  core_.queue.ScheduleAt(arrival, [this, id] { OnJobArrival(id); });
  return id;
}

void Engine::SetCompletionHook(std::function<void(JobId)> hook) {
  AFF_CHECK_MSG(!core_.running, "SetCompletionHook must be called before Run()");
  core_.completion_hook = std::move(hook);
}

SimTime Engine::Run() {
  AFF_CHECK(!core_.running);
  core_.running = true;
  if (sampler_ != nullptr) {
    StartSampling();
  }
  StartBalancing();
  SimTime last_completion = 0;
  while (core_.WorkRemaining()) {
    if (!core_.queue.RunNext()) {
      DumpState();
      AFF_CHECK_MSG(false, "simulation stalled with jobs outstanding");
    }
  }
  acct_.FinalizeMetrics();
  for (const JobState& js : core_.jobs) {
    last_completion = std::max(last_completion, js.job->stats().completion);
  }
  return last_completion;
}

void Engine::OnJobArrival(JobId id) {
  JobState& js = core_.job_state(id);
  js.active = true;
  js.job->stats().arrival = core_.queue.now();
  js.credit_update = core_.queue.now();
  js.alloc_update = core_.queue.now();
  js.par_update = core_.queue.now();
  core_.active_jobs.push_back(id);
  acct_.NoteJobArrival(id);
  PolicyDecision decision = core_.policy->OnJobArrival(*this, id);
  // Color reservation is consulted once, after the arrival decision (so the
  // policy has already folded the job into its plan) and before any worker
  // exists (so every worker inherits the mask).
  if (core_.machine.config().num_colors > 0) {
    core_.job_state(id).color_mask = core_.policy->ColorMask(*this, id);
  }
  alloc_.ApplyDecision(std::move(decision), DecisionSite::kJobArrival);
  alloc_.RequestLoop(id);
}

// --- Telemetry ---------------------------------------------------------------

void Engine::SetSampler(Sampler* sampler) {
  AFF_CHECK_MSG(!core_.running, "SetSampler must be called before Run()");
  sampler_ = sampler;
}

void Engine::StartSampling() {
  // Standard machine-wide probes, then three per job. User probes registered
  // before Run() keep their earlier columns.
  sampler_->AddProbe("active_jobs",
                     [this] { return static_cast<double>(core_.active_jobs.size()); });
  sampler_->AddProbe("bus_util",
                     [this] { return core_.machine.bus().UtilizationAt(core_.queue.now()); });
  sampler_->AddProbe("runnable_demand", [this] {
    size_t demand = 0;
    for (JobId id : core_.active_jobs) {
      demand += core_.PendingDemand(id);
    }
    return static_cast<double>(demand);
  });
  for (JobId id = 0; id < core_.jobs.size(); ++id) {
    const std::string label = core_.jobs[id].job->name() + "#" + std::to_string(id);
    sampler_->AddProbe("alloc." + label, [this, id] {
      return static_cast<double>(core_.jobs[id].allocation);
    });
    sampler_->AddProbe("demand." + label, [this, id] {
      return static_cast<double>(core_.PendingDemand(id));
    });
    // Rolling %affinity: the affine fraction of the dispatches that happened
    // since the previous sample (0 when the window saw none).
    sampler_->AddProbe("affinity_win." + label,
                       [this, id, last = std::pair<uint64_t, uint64_t>{0, 0}]() mutable {
                         const JobStats& st = core_.jobs[id].job->stats();
                         const uint64_t dispatches = st.reallocations - last.first;
                         const uint64_t affine = st.affinity_dispatches - last.second;
                         last = {st.reallocations, st.affinity_dispatches};
                         return dispatches > 0 ? static_cast<double>(affine) /
                                                     static_cast<double>(dispatches)
                                               : 0.0;
                       });
  }
  SamplerTick();
}

void Engine::SamplerTick() {
  sampler_->Sample(core_.queue.now());
  // Reschedule only while the simulation still has real events: if the queue
  // is empty here the run is either finished or stalled, and in the stalled
  // case the deadlock diagnostics in Run() must fire rather than the sampler
  // ticking forever.
  if (core_.WorkRemaining() && !core_.queue.empty()) {
    core_.queue.ScheduleAfter(sampler_->cadence(), [this] { SamplerTick(); });
  }
}

// --- Load balancing ----------------------------------------------------------

void Engine::StartBalancing() {
  // The EngineOptions override wins so sweeps can vary the cadence without a
  // per-policy constructor path; 0 everywhere means no tick is ever scheduled
  // and the run is byte-identical to a pre-balancing engine.
  const SimDuration cadence = core_.options.balance_interval > 0
                                  ? core_.options.balance_interval
                                  : core_.policy->BalanceInterval();
  if (cadence > 0) {
    core_.queue.ScheduleAfter(cadence, [this, cadence] { BalanceTick(cadence); });
  }
}

void Engine::BalanceTick(SimDuration cadence) {
  if (core_.jobs_remaining > 0 && !core_.active_jobs.empty()) {
    alloc_.ApplyDecision(core_.policy->OnBalanceTick(*this), DecisionSite::kBalanceTick);
  }
  // Mirror SamplerTick: keep ticking only while the simulation has real
  // events, so a stalled run still reaches the deadlock diagnostics.
  if (core_.WorkRemaining() && !core_.queue.empty()) {
    core_.queue.ScheduleAfter(cadence, [this, cadence] { BalanceTick(cadence); });
  }
}

// --- Results -----------------------------------------------------------------

const Job& Engine::job(JobId id) const {
  AFF_CHECK(id < core_.jobs.size());
  return *core_.jobs[id].job;
}

const WeightedHistogram* Engine::parallelism_histogram(JobId id) const {
  AFF_CHECK(id < core_.jobs.size());
  return core_.jobs[id].par_hist.get();
}

// --- SchedView ---------------------------------------------------------------

size_t Engine::NumProcessors() const { return core_.procs.size(); }

std::vector<JobId> Engine::ActiveJobs() const { return core_.active_jobs; }

size_t Engine::Allocation(JobId id) const { return core_.job_state(id).allocation; }

size_t Engine::EffectiveAllocation(JobId id) const { return core_.EffectiveAllocation(id); }

size_t Engine::MaxParallelism(JobId id) const { return job(id).max_parallelism(); }

size_t Engine::PendingDemand(JobId id) const { return core_.PendingDemand(id); }

JobId Engine::ProcessorJob(size_t proc) const {
  AFF_CHECK(proc < core_.procs.size());
  return core_.procs[proc].holder;
}

bool Engine::WillingToYield(size_t proc) const {
  AFF_CHECK(proc < core_.procs.size());
  const ProcState& ps = core_.procs[proc];
  return ps.willing && !ps.pending_valid;
}

bool Engine::ReassignmentPending(size_t proc) const {
  AFF_CHECK(proc < core_.procs.size());
  return core_.procs[proc].pending_valid;
}

CacheOwner Engine::LastTaskOn(size_t proc) const {
  return core_.machine.processor(proc).last_task();
}

std::vector<CacheOwner> Engine::RecentTasksOn(size_t proc) const {
  const std::span<const CacheOwner> history = core_.machine.processor(proc).recent_tasks();
  return std::vector<CacheOwner>(history.begin(), history.end());
}

bool Engine::TaskRunnable(CacheOwner task) const {
  if (!core_.HasWorker(task)) {
    return false;
  }
  const Worker& w = core_.worker(task);
  if (w.state != Worker::State::kIdle) {
    return false;
  }
  return core_.PendingDemand(w.job) > 0;
}

JobId Engine::TaskJob(CacheOwner task) const {
  return core_.HasWorker(task) ? core_.worker(task).job : kInvalidJobId;
}

size_t Engine::DesiredProcessor(JobId id) const {
  const CacheOwner task = core_.ReferenceTask(id);
  return task != kNoOwner ? core_.worker(task).last_processor() : kNoProcessor;
}

double Engine::Priority(JobId id) const { return core_.Priority(id); }

size_t Engine::DistanceTier(size_t from, size_t to) const {
  return core_.machine.topology().TierBetween(from, to);
}

double Engine::ReloadCostSeconds(JobId id, size_t proc) const {
  AFF_CHECK(proc < core_.procs.size());
  // A job with no placement history pays the full working-set reload on any
  // processor.
  const CacheOwner task = core_.ReferenceTask(id);
  const double resident =
      task != kNoOwner ? core_.machine.processor(proc).cache().Resident(task) : 0.0;
  return core_.ReloadSeconds(proc, resident, core_.job_state(id).profile->working_set.blocks);
}

double Engine::WorkingSetBlocks(JobId id) const {
  return core_.job_state(id).profile->working_set.blocks;
}

double Engine::SharedWriteRate(JobId id) const {
  return core_.job_state(id).profile->working_set.shared_write_per_s;
}

double Engine::DeadlineSeconds(JobId id) const {
  return core_.job_state(id).profile->rt.deadline_s;
}

size_t Engine::NumColors() const { return core_.machine.config().num_colors; }

// --- Diagnostics -------------------------------------------------------------

void Engine::DumpState() const {
  // Deadlock diagnostics go through the leveled logger: visible by default
  // (warn), and available on demand via AFFSCHED_LOG_LEVEL=debug from other
  // call sites without recompiling.
  const LogLevel level = LogLevel::kWarn;
  if (!LogEnabled(level)) {
    return;
  }
  Logf(level, "=== engine state at t=%lld ns ===", static_cast<long long>(core_.queue.now()));
  for (size_t p = 0; p < core_.procs.size(); ++p) {
    const ProcState& ps = core_.procs[p];
    Logf(level,
         "proc %zu: holder=%d running=%llu holding=%llu switching=%d willing=%d "
         "pending=%d->%d",
         p, ps.holder == kInvalidJobId ? -1 : static_cast<int>(ps.holder),
         static_cast<unsigned long long>(ps.running),
         static_cast<unsigned long long>(ps.holding), ps.switching ? 1 : 0, ps.willing ? 1 : 0,
         ps.pending_valid ? 1 : 0, ps.pending_valid ? static_cast<int>(ps.pending_job) : -1);
  }
  for (size_t j = 0; j < core_.jobs.size(); ++j) {
    const JobState& js = core_.jobs[j];
    Logf(level,
         "job %zu (%s): active=%d ready=%zu alloc=%zu in=%zu out=%zu switching_in=%zu "
         "demand=%zu remaining=%zu idle_workers=%zu",
         j, js.job->name().c_str(), js.active ? 1 : 0, js.job->ReadyCount(), js.allocation,
         js.pending_incoming, js.pending_outgoing, js.switching_in,
         core_.PendingDemand(static_cast<JobId>(j)), js.job->graph().remaining(),
         js.idle_workers.size());
  }
}

}  // namespace affsched
