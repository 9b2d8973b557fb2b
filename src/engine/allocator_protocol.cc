#include "src/engine/allocator_protocol.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"
#include "src/engine/dispatcher.h"

namespace affsched {

void AllocatorProtocol::ApplyDecision(const PolicyDecision& decision, DecisionSite site) {
  acct_.NoteDecision(site, decision);
  if (decision.targets.has_value()) {
    Reconcile(*decision.targets);
  }
  for (const Assignment& a : decision.assignments) {
    if (core_.decisions != nullptr) {
      RecordDecision(site, a);
    }
    AssignProcessor(a);
  }
}

void AllocatorProtocol::RecordDecision(DecisionSite site, const Assignment& a) {
  DecisionRecord rec;
  rec.id = core_.next_decision_id++;
  rec.when = core_.queue.now();
  rec.site = site;
  rec.reason = a.reason;
  rec.job = a.job;
  rec.chosen_proc = a.proc;
  rec.prefer_task = a.prefer_task;

  // Reference task for the affinity breakdown: the explicit preference, else
  // the job's reference task (EngineCore::ReferenceTask).
  CacheOwner task = a.prefer_task;
  if (task == kNoOwner && a.job < core_.jobs.size()) {
    task = core_.ReferenceTask(a.job);
  }
  const size_t last = task != kNoOwner && core_.HasWorker(task)
                          ? core_.worker(task).last_processor()
                          : kNoProcessor;
  const double ws_blocks =
      a.job < core_.jobs.size() ? core_.job_state(a.job).profile->working_set.blocks : 0.0;

  rec.candidates.reserve(core_.procs.size());
  for (size_t p = 0; p < core_.procs.size(); ++p) {
    DecisionCandidate cand;
    cand.proc = p;
    if (last != kNoProcessor) {
      cand.tier = core_.machine.topology().TierBetween(last, p);
    }
    if (task != kNoOwner) {
      cand.footprint_blocks = core_.machine.processor(p).cache().Resident(task);
    }
    cand.reload_cost_s = core_.ReloadSeconds(p, cand.footprint_blocks, ws_blocks);
    const ProcState& ps = core_.procs[p];
    cand.available = ps.holder == kInvalidJobId || (ps.willing && !ps.pending_valid);
    cand.chosen = p == a.proc;
    rec.candidates.push_back(cand);
  }
  core_.decisions->Record(std::move(rec));
}

void AllocatorProtocol::Reconcile(const std::map<JobId, size_t>& targets) {
  // Phase 1: release surplus processors.
  std::vector<size_t> preempt_list;
  for (JobId id : core_.active_jobs) {
    JobState& js = core_.job_state(id);
    auto it = targets.find(id);
    const size_t target = it == targets.end() ? 0 : it->second;
    const size_t committed = js.allocation + js.pending_incoming;
    const size_t effective = committed > js.pending_outgoing ? committed - js.pending_outgoing : 0;
    size_t excess = effective > target ? effective - target : 0;
    // Idle (holding) processors go first: releasing them costs nothing.
    for (size_t p = 0; p < core_.procs.size() && excess > 0; ++p) {
      ProcState& ps = core_.procs[p];
      if (ps.holder == id && ps.holding != kNoOwner && !ps.pending_valid) {
        ReleaseFromHolder(p);
        --excess;
      }
    }
    for (size_t p = 0; p < core_.procs.size() && excess > 0; ++p) {
      ProcState& ps = core_.procs[p];
      if (ps.holder == id && !ps.pending_valid && (ps.running != kNoOwner || ps.switching)) {
        preempt_list.push_back(p);
        --excess;
      }
    }
  }

  // Phase 2: satisfy deficits, free processors first (cheap), then the
  // preemption list (takes effect at chunk boundaries).
  size_t preempt_cursor = 0;
  for (JobId id : core_.active_jobs) {
    JobState& js = core_.job_state(id);
    auto it = targets.find(id);
    const size_t target = it == targets.end() ? 0 : it->second;
    const size_t committed = js.allocation + js.pending_incoming;
    const size_t effective = committed > js.pending_outgoing ? committed - js.pending_outgoing : 0;
    size_t deficit = target > effective ? target - effective : 0;
    for (size_t p = 0; p < core_.procs.size() && deficit > 0; ++p) {
      if (core_.procs[p].holder == kInvalidJobId && !core_.procs[p].switching) {
        if (core_.decisions != nullptr) {
          RecordDecision(DecisionSite::kReconcile,
                         Assignment{p, id, kNoOwner, DecisionReason::kRepartition});
        }
        StartSwitch(p, id, kNoOwner);
        --deficit;
      }
    }
    while (deficit > 0 && preempt_cursor < preempt_list.size()) {
      const size_t p = preempt_list[preempt_cursor++];
      if (core_.decisions != nullptr) {
        RecordDecision(DecisionSite::kReconcile,
                       Assignment{p, id, kNoOwner, DecisionReason::kRepartition});
      }
      SetPending(p, id, kNoOwner);
      --deficit;
    }
  }
}

void AllocatorProtocol::AssignProcessor(const Assignment& a) {
  AFF_CHECK(a.proc < core_.procs.size());
  AFF_CHECK(a.job < core_.jobs.size());
  ProcState& ps = core_.procs[a.proc];
  JobState& to = core_.job_state(a.job);
  if (!to.active) {
    return;
  }
  if (ps.holder == a.job) {
    // Rescind a pending takeaway; otherwise nothing to do — the job already
    // holds this processor.
    if (ps.pending_valid) {
      ClearPending(a.proc);
    }
    return;
  }
  // The assignment will be realised (committed now or at the next chunk
  // boundary): count steal/balance provenance here so the per-tier counters
  // see only grants that changed hands, not no-op re-assignments.
  if (a.steal_tier != kNoStealTier) {
    acct_.RecordSteal(to, a.steal_tier);
  } else if (a.reason == DecisionReason::kBalanceMigrate) {
    acct_.RecordBalanceMigration(to);
  }
  if (ps.running != kNoOwner || ps.switching) {
    SetPending(a.proc, a.job, a.prefer_task);
    return;
  }
  if (ps.holder != kInvalidJobId) {
    ReleaseFromHolder(a.proc);
  }
  StartSwitch(a.proc, a.job, a.prefer_task);
}

void AllocatorProtocol::SetPending(size_t proc, JobId id, CacheOwner prefer) {
  ProcState& ps = core_.procs[proc];
  AFF_CHECK(ps.running != kNoOwner || ps.switching);
  if (ps.pending_valid) {
    ClearPending(proc);
  }
  ps.pending_valid = true;
  ps.pending_job = id;
  ps.pending_prefer = prefer;
  ps.willing = false;
  core_.job_state(id).pending_incoming++;
  core_.job_state(ps.holder).pending_outgoing++;
}

void AllocatorProtocol::ClearPending(size_t proc) {
  ProcState& ps = core_.procs[proc];
  AFF_CHECK(ps.pending_valid);
  JobState& to = core_.job_state(ps.pending_job);
  AFF_CHECK(to.pending_incoming > 0);
  to.pending_incoming--;
  JobState& from = core_.job_state(ps.holder);
  AFF_CHECK(from.pending_outgoing > 0);
  from.pending_outgoing--;
  ps.pending_valid = false;
  ps.pending_job = kInvalidJobId;
  ps.pending_prefer = kNoOwner;
}

void AllocatorProtocol::ReleaseFromHolder(size_t proc) {
  ProcState& ps = core_.procs[proc];
  AFF_CHECK(ps.holder != kInvalidJobId);
  AFF_CHECK(ps.holding != kNoOwner);
  JobState& js = core_.job_state(ps.holder);
  acct_.ChargeWaste(js, core_.queue.now() - ps.hold_start);
  if (ps.yield_timer != kInvalidEventId) {
    core_.queue.Cancel(ps.yield_timer);
    ps.yield_timer = kInvalidEventId;
  }
  Worker& w = core_.worker(ps.holding);
  dispatcher_->ParkWorker(js, w);
  acct_.Note(TraceEventKind::kRelease, proc, ps.holder, w.id);
  acct_.ChangeAllocation(ps.holder, -1);
  ps.holder = kInvalidJobId;
  ps.holding = kNoOwner;
  ps.willing = false;
}

void AllocatorProtocol::StartSwitch(size_t proc, JobId to_job, CacheOwner prefer) {
  ProcState& ps = core_.procs[proc];
  AFF_CHECK(ps.holder == kInvalidJobId);
  AFF_CHECK(!ps.switching && ps.running == kNoOwner && ps.holding == kNoOwner);
  AFF_CHECK(!ps.pending_valid);
  JobState& js = core_.job_state(to_job);
  AFF_CHECK(js.active);
  ps.holder = to_job;
  ps.switching = true;
  ps.willing = false;
  ps.dispatch_prefer = prefer;
  js.switching_in++;
  acct_.ChangeAllocation(to_job, +1);
  acct_.ChargeSwitch(js);
  acct_.Note(TraceEventKind::kSwitchStart, proc, to_job);
  core_.queue.ScheduleAfter(core_.machine.config().SwitchCost(),
                            [this, proc] { OnSwitchDone(proc); });
}

void AllocatorProtocol::OnSwitchDone(size_t proc) {
  ProcState& ps = core_.procs[proc];
  AFF_CHECK(ps.switching);
  ps.switching = false;
  JobState& js = core_.job_state(ps.holder);
  AFF_CHECK(js.switching_in > 0);
  js.switching_in--;

  if (ps.pending_valid) {
    // Retargeted while the switch was in flight: switch again.
    const JobId to = ps.pending_job;
    const CacheOwner prefer = ps.pending_prefer;
    ClearPending(proc);
    const JobId from = ps.holder;
    acct_.ChangeAllocation(from, -1);
    ps.holder = kInvalidJobId;
    if (core_.job_state(to).active) {
      StartSwitch(proc, to, prefer);
    } else if (core_.jobs_remaining > 0) {
      ApplyDecision(core_.policy->OnProcessorAvailable(*core_.view, proc),
                    DecisionSite::kProcessorAvailable);
    }
    return;
  }

  if (!js.active) {
    // The job completed while this switch was in flight.
    acct_.ChangeAllocation(ps.holder, -1);
    ps.holder = kInvalidJobId;
    if (core_.jobs_remaining > 0) {
      ApplyDecision(core_.policy->OnProcessorAvailable(*core_.view, proc),
                    DecisionSite::kProcessorAvailable);
    }
    return;
  }
  dispatcher_->DispatchWorker(proc);
}

void AllocatorProtocol::EnterHolding(size_t proc, CacheOwner worker_id) {
  ProcState& ps = core_.procs[proc];
  Worker& w = core_.worker(worker_id);
  AFF_CHECK(w.processor == proc);
  AFF_CHECK(ps.running == kNoOwner);
  ps.holding = worker_id;
  ps.willing = false;
  ps.hold_start = core_.queue.now();
  w.state = Worker::State::kHolding;
  w.current.reset();
  acct_.Note(TraceEventKind::kHold, proc, ps.holder, worker_id);
  const SimDuration delay = core_.policy->YieldDelay();
  if (delay <= 0) {
    OnYieldTimer(proc);
  } else {
    ps.yield_timer = core_.queue.ScheduleAfter(delay, [this, proc] { OnYieldTimer(proc); });
  }
}

void AllocatorProtocol::OnYieldTimer(size_t proc) {
  ProcState& ps = core_.procs[proc];
  ps.yield_timer = kInvalidEventId;
  if (ps.holding == kNoOwner || ps.pending_valid) {
    return;
  }
  ps.willing = true;
  acct_.Note(TraceEventKind::kYield, proc, ps.holder, ps.holding);
  ApplyDecision(core_.policy->OnProcessorAvailable(*core_.view, proc),
                DecisionSite::kProcessorAvailable);
}

void AllocatorProtocol::OnQuantumTimer(size_t proc) {
  ProcState& ps = core_.procs[proc];
  ps.quantum_timer = kInvalidEventId;
  if (ps.holder == kInvalidJobId || core_.jobs_remaining == 0) {
    return;
  }
  ApplyDecision(core_.policy->OnQuantumExpiry(*core_.view, proc),
                DecisionSite::kQuantumExpiry);
  // Keep the clock ticking while the processor stays held.
  if (core_.procs[proc].holder != kInvalidJobId && core_.policy->Quantum() > 0) {
    ps.quantum_timer = core_.queue.ScheduleAfter(core_.policy->Quantum(),
                                                 [this, proc] { OnQuantumTimer(proc); });
  }
}

void AllocatorProtocol::HandleJobCompletion(JobId id, size_t completing_proc) {
  JobState& js = core_.job_state(id);
  acct_.UpdateAllocIntegral(id);
  acct_.RecordParallelism(id);
  js.job->stats().completion = core_.queue.now();
  js.active = false;
  auto it = std::find(core_.active_jobs.begin(), core_.active_jobs.end(), id);
  AFF_CHECK(it != core_.active_jobs.end());
  core_.active_jobs.erase(it);
  acct_.NoteJobCompletion(id);
  AFF_CHECK(core_.jobs_remaining > 0);
  --core_.jobs_remaining;

  std::vector<size_t> freed = {completing_proc};
  for (size_t p = 0; p < core_.procs.size(); ++p) {
    ProcState& ps = core_.procs[p];
    if (ps.holder != id) {
      continue;
    }
    if (ps.holding != kNoOwner) {
      ReleaseFromHolder(p);
      freed.push_back(p);
    } else {
      // Switch in flight; OnSwitchDone notices the inactive holder and frees
      // the processor itself. Running chunks are impossible once the graph is
      // finished.
      AFF_CHECK(ps.switching);
    }
  }

  // Departure hook before the policy reacts: an open-system driver may admit
  // a queued job here. Admission defers the actual arrival through an event
  // at the current timestamp, so the policy sees departure before arrival.
  if (core_.completion_hook) {
    core_.completion_hook(id);
  }

  if (core_.jobs_remaining == 0 && core_.external_pending == 0) {
    return;
  }
  ApplyDecision(core_.policy->OnJobDeparture(*core_.view, id), DecisionSite::kJobDeparture);
  for (size_t p : freed) {
    if (core_.procs[p].holder == kInvalidJobId && !core_.procs[p].switching) {
      ApplyDecision(core_.policy->OnProcessorAvailable(*core_.view, p),
                    DecisionSite::kProcessorAvailable);
    }
  }
  // Survivors may have had unmet demand the departed job's processors can now
  // satisfy.
  for (JobId survivor : std::vector<JobId>(core_.active_jobs)) {
    RequestLoop(survivor);
  }
}

void AllocatorProtocol::NotifyNewWork(JobId id) {
  JobState& js = core_.job_state(id);
  if (!js.active) {
    return;
  }
  // Held processors absorb new threads first — this is the yield-delay win:
  // no reallocation cost at all.
  for (size_t p = 0; p < core_.procs.size() && js.job->HasReadyThread(); ++p) {
    ProcState& ps = core_.procs[p];
    if (ps.holder != id || ps.holding == kNoOwner || ps.pending_valid) {
      continue;
    }
    acct_.ChargeWaste(js, core_.queue.now() - ps.hold_start);
    if (ps.yield_timer != kInvalidEventId) {
      core_.queue.Cancel(ps.yield_timer);
      ps.yield_timer = kInvalidEventId;
    }
    ps.willing = false;
    Worker& w = core_.worker(ps.holding);
    ps.holding = kNoOwner;
    w.state = Worker::State::kRunning;
    w.current = js.job->PopReadyThread();
    acct_.SetRunning(p, w.id);
    acct_.Note(TraceEventKind::kResume, p, id, w.id);
    dispatcher_->StartChunk(p);
  }
  RequestLoop(id);
}

void AllocatorProtocol::RequestLoop(JobId id) {
  JobState& js = core_.job_state(id);
  while (js.active && core_.PendingDemand(id) > 0) {
    const size_t before = core_.PendingDemand(id);
    // An empty decision is applied too, so every request is counted; it
    // makes no progress and ends the loop.
    ApplyDecision(core_.policy->OnRequest(*core_.view, id), DecisionSite::kRequest);
    if (core_.PendingDemand(id) >= before) {
      break;  // no progress; avoid spinning
    }
  }
}

}  // namespace affsched
