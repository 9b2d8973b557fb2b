// AllocatorProtocol: the Section-5 job <-> allocator negotiation and the
// reallocation mechanics.
//
// Owns the request/yield protocol (RequestLoop, NotifyNewWork, yield timers
// and willing advertisement), pending-reassignment state (SetPending /
// ClearPending, applied at chunk boundaries), the kernel path-length charge
// of a reallocation (StartSwitch / OnSwitchDone), holding periods, quantum
// expiry, and job arrival/completion transitions. Placement decisions come
// from the Policy; this component realises them against the shared core
// state, calling back into the Dispatcher when a processor is ready to run.

#ifndef SRC_ENGINE_ALLOCATOR_PROTOCOL_H_
#define SRC_ENGINE_ALLOCATOR_PROTOCOL_H_

#include <map>

#include "src/engine/accounting.h"
#include "src/engine/engine_core.h"

namespace affsched {

class Dispatcher;

class AllocatorProtocol {
 public:
  AllocatorProtocol(EngineCore& core, Accounting& acct) : core_(core), acct_(acct) {}

  void Connect(Dispatcher* dispatcher) { dispatcher_ = dispatcher; }

  // Realises a policy decision: reconcile targets, then explicit assignments.
  // `site` labels the decision point in provenance records and picks the
  // policy.* counter the decision is counted under; it changes no
  // scheduling behaviour.
  void ApplyDecision(const PolicyDecision& decision,
                     DecisionSite site = DecisionSite::kUnknown);
  void Reconcile(const std::map<JobId, size_t>& targets);
  void AssignProcessor(const Assignment& assignment);

  // Ends a holding period (waste accounting) and detaches the worker.
  void ReleaseFromHolder(size_t proc);
  // Begins the reallocation path-length charge toward `to_job`.
  void StartSwitch(size_t proc, JobId to_job, CacheOwner prefer);
  void OnSwitchDone(size_t proc);
  // Parks `worker_id` on `proc` without work; starts the yield-delay timer.
  void EnterHolding(size_t proc, CacheOwner worker_id);
  void OnYieldTimer(size_t proc);
  void OnQuantumTimer(size_t proc);

  void HandleJobCompletion(JobId id, size_t completing_proc);
  // New ready threads: resume held processors first, then advertise demand.
  void NotifyNewWork(JobId id);
  // Lets the job request processors until demand is met or the policy stops
  // granting.
  void RequestLoop(JobId id);

  void SetPending(size_t proc, JobId job, CacheOwner prefer);
  void ClearPending(size_t proc);

 private:
  // Assembles and emits one provenance record for a realised assignment.
  // Callers must check core_.decisions != nullptr first — the candidate
  // table walk is not free, so it must never run with tracing disabled.
  void RecordDecision(DecisionSite site, const Assignment& assignment);

  EngineCore& core_;
  Accounting& acct_;
  Dispatcher* dispatcher_ = nullptr;
};

}  // namespace affsched

#endif  // SRC_ENGINE_ALLOCATOR_PROTOCOL_H_
