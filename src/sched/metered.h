// MeteredPolicy: a transparent decorator that counts every policy
// invocation without the wrapped policy knowing, so the engine and the
// policies themselves stay free of instrumentation.
//
// Scheduling behaviour is bit-identical to the wrapped policy: every hook
// delegates verbatim, including YieldDelay/UsesAffinity/Quantum, so a
// metered run replays the exact same simulated trajectory.

#ifndef SRC_SCHED_METERED_H_
#define SRC_SCHED_METERED_H_

#include <memory>
#include <string>

#include "src/sched/policy.h"
#include "src/telemetry/metrics.h"

namespace affsched {

class MeteredPolicy : public Policy {
 public:
  explicit MeteredPolicy(std::unique_ptr<Policy> inner);

  // Creates "policy.on_arrival", "policy.on_departure", "policy.on_available",
  // "policy.on_request", "policy.on_quantum", "policy.on_balance",
  // "policy.assignments", and "policy.repartitions" counters in `registry`.
  // Pass nullptr to detach.
  // The registry must outlive this policy.
  void AttachMetrics(MetricsRegistry* registry);

  std::string name() const override { return inner_->name(); }
  PolicyDecision OnJobArrival(const SchedView& view, JobId job) override;
  PolicyDecision OnJobDeparture(const SchedView& view, JobId job) override;
  PolicyDecision OnProcessorAvailable(const SchedView& view, size_t proc) override;
  PolicyDecision OnRequest(const SchedView& view, JobId job) override;
  PolicyDecision OnQuantumExpiry(const SchedView& view, size_t proc) override;
  PolicyDecision OnBalanceTick(const SchedView& view) override;
  SimDuration YieldDelay() const override { return inner_->YieldDelay(); }
  bool UsesAffinity() const override { return inner_->UsesAffinity(); }
  SimDuration Quantum() const override { return inner_->Quantum(); }
  SimDuration BalanceInterval() const override { return inner_->BalanceInterval(); }

 private:
  // Counts the decision's side (assignments / full repartition) and returns
  // it unchanged.
  PolicyDecision Account(Counter* hook, PolicyDecision decision);

  std::unique_ptr<Policy> inner_;
  Counter* on_arrival_ = nullptr;
  Counter* on_departure_ = nullptr;
  Counter* on_available_ = nullptr;
  Counter* on_request_ = nullptr;
  Counter* on_quantum_ = nullptr;
  Counter* on_balance_ = nullptr;
  Counter* assignments_ = nullptr;
  Counter* repartitions_ = nullptr;
};

}  // namespace affsched

#endif  // SRC_SCHED_METERED_H_
