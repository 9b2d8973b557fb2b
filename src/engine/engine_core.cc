#include "src/engine/engine_core.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/cache/footprint.h"
#include "src/common/check.h"

namespace affsched {

namespace {

// Decay constant of the usage-credit priority scheme, in seconds.
constexpr double kCreditDecaySeconds = 8.0;

}  // namespace

EngineCore::EngineCore(const MachineConfig& machine_config, std::unique_ptr<Policy> policy_in,
                       uint64_t seed, const EngineOptions& options_in)
    : options(options_in), machine(machine_config), policy(std::move(policy_in)), rng(seed) {
  AFF_CHECK(policy != nullptr);
  AFF_CHECK(options.chunk_quantum > 0);
  procs.resize(machine.num_processors());
}

Worker& EngineCore::worker(CacheOwner id) {
  AFF_CHECK(HasWorker(id));
  return workers[id - 1];
}

const Worker& EngineCore::worker(CacheOwner id) const {
  AFF_CHECK(HasWorker(id));
  return workers[id - 1];
}

JobState& EngineCore::job_state(JobId id) {
  AFF_CHECK(id < jobs.size());
  return jobs[id];
}

const JobState& EngineCore::job_state(JobId id) const {
  AFF_CHECK(id < jobs.size());
  return jobs[id];
}

CacheOwner EngineCore::CreateWorker(JobId id) {
  const CacheOwner wid = next_worker_id++;
  Worker w;
  w.id = wid;
  w.job = id;
  w.history_depth = options.processor_history_depth;
  AFF_CHECK(wid == workers.size() + 1);
  workers.push_back(w);
  // Colored machine: a worker inherits its job's color reservation in every
  // private cache, so wherever it lands its reloads and interference are
  // confined to the job's colors.
  if (machine.config().num_colors > 0) {
    const uint64_t mask = job_state(id).color_mask;
    for (size_t p = 0; p < machine.num_processors(); ++p) {
      machine.processor(p).cache().ReserveColors(wid, mask);
    }
  }
  return wid;
}

double EngineCore::TakeOwed(Worker& w) {
  const double debt = job_state(w.job).invalidation_debt;
  AFF_CHECK(debt >= w.settled_debt);
  return debt - std::exchange(w.settled_debt, debt);
}

size_t EngineCore::EffectiveAllocation(JobId id) const {
  const JobState& js = job_state(id);
  const size_t committed = js.allocation + js.pending_incoming;
  return committed > js.pending_outgoing ? committed - js.pending_outgoing : 0;
}

size_t EngineCore::PendingDemand(JobId id) const {
  const JobState& js = job_state(id);
  if (!js.active) {
    return 0;
  }
  const size_t incoming = js.pending_incoming + js.switching_in;
  const size_t ready = js.job->ReadyCount();
  if (ready <= incoming) {
    return 0;
  }
  const size_t committed = js.allocation + js.pending_incoming;
  const size_t outgoing = js.pending_outgoing;
  const size_t effective = committed > outgoing ? committed - outgoing : 0;
  const size_t cap = js.job->max_parallelism();
  if (effective >= cap) {
    return 0;
  }
  return std::min(ready - incoming, cap - effective);
}

double EngineCore::FairShare() const {
  const size_t n = std::max<size_t>(1, active_jobs.size());
  return static_cast<double>(procs.size()) / static_cast<double>(n);
}

double EngineCore::Priority(JobId id) const {
  const JobState& js = job_state(id);
  const double dt = ToSeconds(queue.now() - js.credit_update);
  const double decayed = js.credit * std::exp(-dt / kCreditDecaySeconds);
  // Credit accrues while the job holds fewer processors than its fair share
  // and is spent while it holds more.
  const double accrual = (FairShare() - static_cast<double>(js.allocation)) * dt;
  return decayed + accrual;
}

CacheOwner EngineCore::ReferenceTask(JobId id) const {
  for (CacheOwner wid : job_state(id).idle_workers) {
    if (worker(wid).last_processor() != kNoProcessor) {
      return wid;
    }
  }
  return kNoOwner;
}

double EngineCore::ReloadSeconds(size_t proc, double resident, double ws_blocks) const {
  const double target = machine.processor(proc).cache().MaxResident(ws_blocks);
  return target > resident ? (target - resident) * machine.config().MissServiceSeconds() : 0.0;
}

}  // namespace affsched
