#include "src/engine/dispatcher.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/engine/allocator_protocol.h"

namespace affsched {

CacheOwner Dispatcher::SelectWorker(JobId id, size_t proc, CacheOwner prefer) {
  JobState& js = core_.job_state(id);
  if (prefer != kNoOwner && core_.HasWorker(prefer)) {
    Worker& w = core_.worker(prefer);
    if (w.job == id && w.state == Worker::State::kIdle) {
      RemoveIdleWorker(js, prefer);
      return prefer;
    }
  }
  if (core_.policy->UsesAffinity()) {
    // Affinity-aware runtime: prefer the idle worker whose cache context
    // lives on this processor, then the most recently parked one (warmest).
    for (CacheOwner wid : js.idle_workers) {
      if (core_.worker(wid).HasAffinityFor(proc)) {
        RemoveIdleWorker(js, wid);
        return wid;
      }
    }
    if (!js.idle_workers.empty()) {
      const CacheOwner wid = js.idle_workers.front();
      RemoveIdleWorker(js, wid);
      return wid;
    }
  } else if (!js.idle_workers.empty()) {
    // Oblivious runtime (plain Dynamic / plain TimeShare): pick any idle
    // worker, with no regard to where its cache context lives. A uniformly
    // random pick avoids the systematic worker/processor re-pairing a FIFO
    // pool accidentally produces.
    const size_t index = core_.rng.NextBounded(js.idle_workers.size());
    const CacheOwner wid = js.idle_workers[index];
    js.idle_workers.erase(js.idle_workers.begin() + static_cast<long>(index));
    return wid;
  }
  return core_.CreateWorker(id);
}

void Dispatcher::RemoveIdleWorker(JobState& js, CacheOwner id) {
  auto it = std::find(js.idle_workers.begin(), js.idle_workers.end(), id);
  AFF_CHECK(it != js.idle_workers.end());
  js.idle_workers.erase(it);
}

void Dispatcher::ParkWorker(JobState& js, Worker& w) {
  w.state = Worker::State::kIdle;
  w.current.reset();
  w.processor = kNoProcessor;
  js.idle_workers.insert(js.idle_workers.begin(), w.id);
}

void Dispatcher::DispatchWorker(size_t proc) {
  ProcState& ps = core_.procs[proc];
  const JobId id = ps.holder;
  JobState& js = core_.job_state(id);
  const CacheOwner prefer = ps.dispatch_prefer;
  ps.dispatch_prefer = kNoOwner;

  const CacheOwner wid = SelectWorker(id, proc, prefer);
  Worker& w = core_.worker(wid);

  // This is a reallocation the job experiences; record whether the task
  // landed where its cache context lives, and how far it migrated.
  const bool affine = w.HasAffinityFor(proc);
  const size_t prev = w.last_processor();
  const size_t tier = prev == kNoProcessor
                          ? kNoMigrationTier
                          : core_.machine.topology().TierBetween(prev, proc);
  acct_.RecordDispatch(js, proc, affine, tier);
  acct_.Note(TraceEventKind::kDispatch, proc, id, wid, affine);
  core_.machine.processor(proc).RecordDispatch(wid);
  w.processor = proc;
  w.RecordPlacement(proc);

  if (core_.policy->Quantum() > 0) {
    if (ps.quantum_timer != kInvalidEventId) {
      core_.queue.Cancel(ps.quantum_timer);
    }
    ps.quantum_timer = core_.queue.ScheduleAfter(
        core_.policy->Quantum(), [alloc = alloc_, proc] { alloc->OnQuantumTimer(proc); });
  }

  if (js.job->HasReadyThread()) {
    w.current = js.job->PopReadyThread();
    w.state = Worker::State::kRunning;
    acct_.SetRunning(proc, wid);
    StartChunk(proc);
    // The job may still have unmet demand beyond this processor.
    alloc_->RequestLoop(id);
  } else {
    alloc_->EnterHolding(proc, wid);
  }
}

void Dispatcher::StartChunk(size_t proc) {
  ProcState& ps = core_.procs[proc];
  AFF_CHECK(ps.running != kNoOwner);
  Worker& w = core_.worker(ps.running);
  JobState& js = core_.job_state(w.job);
  AFF_CHECK(w.current.has_value());
  const SimDuration work = std::min(core_.options.chunk_quantum, w.current->remaining);
  AFF_CHECK(work > 0);

  // The worker first pays what its siblings invalidated since it last
  // settled; this chunk's own writes then fall due on its siblings only.
  const WorkingSetParams& ws = js.profile->working_set;
  const Machine::ChunkExecution exec =
      core_.machine.ExecuteChunk(core_.queue.now(), proc, w.id, ws, work, core_.TakeOwed(w));
  js.invalidation_debt += ws.shared_write_per_s * ToSeconds(work);
  w.settled_debt = js.invalidation_debt;
  // The tier attribution is charged now rather than carried in the
  // completion event: chunks always run to completion, so the job's totals
  // are identical either way.
  if (exec.reload_llc != 0 || exec.reload_remote != 0) {
    acct_.ChargeReloadTiers(js, exec.reload_llc, exec.reload_remote);
  }
  const SimDuration reload_stall = exec.reload_stall;
  const SimDuration steady_stall = exec.steady_stall;
  core_.queue.ScheduleAfter(exec.wall,
                            [this, proc, work, reload_stall, steady_stall] {
                              OnChunkDone(proc, work, reload_stall, steady_stall);
                            });
}

void Dispatcher::OnChunkDone(size_t proc, SimDuration work_done, SimDuration reload_stall,
                             SimDuration steady_stall) {
  ProcState& ps = core_.procs[proc];
  AFF_CHECK(ps.running != kNoOwner);
  Worker& w = core_.worker(ps.running);
  const JobId id = w.job;
  JobState& js = core_.job_state(id);

  acct_.ChargeChunk(js, work_done, reload_stall, steady_stall);

  AFF_CHECK(w.current.has_value());
  w.current->remaining -= work_done;
  const bool thread_finished = w.current->remaining <= 0;

  // Drop reassignments whose target job has since completed.
  if (ps.pending_valid && !core_.job_state(ps.pending_job).active) {
    alloc_->ClearPending(proc);
  }

  size_t newly_ready = 0;
  if (thread_finished) {
    const size_t node = w.current->node;
    w.current.reset();
    acct_.Note(TraceEventKind::kThreadComplete, proc, id, w.id);
    newly_ready = js.job->CompleteThread(node);
    // The next thread reuses part of what the siblings left of the footprint.
    core_.machine.Invalidate(core_.queue.now(), proc, w.id, core_.TakeOwed(w));
    core_.machine.ReplaceOwnerData(proc, w.id, js.profile->thread_overlap);
  }

  if (ps.pending_valid) {
    // Preemption takes effect at this chunk boundary.
    if (!thread_finished) {
      js.job->PushPreemptedThread(*w.current);
    }
    acct_.Note(TraceEventKind::kPreempt, proc, id, w.id);
    acct_.SetRunning(proc, kNoOwner);
    ParkWorker(js, w);
    const JobId to = ps.pending_job;
    const CacheOwner prefer = ps.pending_prefer;
    alloc_->ClearPending(proc);
    acct_.ChangeAllocation(id, -1);
    ps.holder = kInvalidJobId;
    alloc_->StartSwitch(proc, to, prefer);
    if (thread_finished && js.job->Finished()) {
      // The job's last thread completed exactly at the preemption boundary.
      alloc_->HandleJobCompletion(id, proc);
    } else {
      // The preempted thread (and any threads its completion enabled) may
      // leave the job with unmet demand it must advertise.
      alloc_->NotifyNewWork(id);
    }
    return;
  }

  if (!thread_finished) {
    StartChunk(proc);
    return;
  }

  if (js.job->Finished()) {
    acct_.SetRunning(proc, kNoOwner);
    ParkWorker(js, w);
    acct_.ChangeAllocation(id, -1);
    ps.holder = kInvalidJobId;
    ps.willing = false;
    alloc_->HandleJobCompletion(id, proc);
    return;
  }

  if (js.job->HasReadyThread()) {
    // Same worker, same processor: picking up the next thread is not a
    // reallocation.
    w.current = js.job->PopReadyThread();
    StartChunk(proc);
    if (newly_ready > 1) {
      alloc_->NotifyNewWork(id);
    }
    return;
  }

  // No work anywhere in the job for this worker: hold the processor and
  // (after the policy's yield delay) advertise it.
  acct_.SetRunning(proc, kNoOwner);
  alloc_->EnterHolding(proc, w.id);
}

}  // namespace affsched
