#include "src/sched/metered.h"

#include <utility>

namespace affsched {

MeteredPolicy::MeteredPolicy(std::unique_ptr<Policy> inner) : inner_(std::move(inner)) {}

void MeteredPolicy::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    on_arrival_ = on_departure_ = on_available_ = on_request_ = on_quantum_ = nullptr;
    on_balance_ = assignments_ = repartitions_ = nullptr;
    return;
  }
  on_arrival_ = registry->FindOrCreateCounter("policy.on_arrival");
  on_departure_ = registry->FindOrCreateCounter("policy.on_departure");
  on_available_ = registry->FindOrCreateCounter("policy.on_available");
  on_request_ = registry->FindOrCreateCounter("policy.on_request");
  on_quantum_ = registry->FindOrCreateCounter("policy.on_quantum");
  on_balance_ = registry->FindOrCreateCounter("policy.on_balance");
  assignments_ = registry->FindOrCreateCounter("policy.assignments");
  repartitions_ = registry->FindOrCreateCounter("policy.repartitions");
}

PolicyDecision MeteredPolicy::Account(Counter* hook, PolicyDecision decision) {
  if (hook != nullptr) {
    hook->Add();
  }
  if (assignments_ != nullptr && !decision.assignments.empty()) {
    assignments_->Add(static_cast<double>(decision.assignments.size()));
  }
  if (repartitions_ != nullptr && decision.targets.has_value()) {
    repartitions_->Add();
  }
  return decision;
}

PolicyDecision MeteredPolicy::OnJobArrival(const SchedView& view, JobId job) {
  return Account(on_arrival_, inner_->OnJobArrival(view, job));
}

PolicyDecision MeteredPolicy::OnJobDeparture(const SchedView& view, JobId job) {
  return Account(on_departure_, inner_->OnJobDeparture(view, job));
}

PolicyDecision MeteredPolicy::OnProcessorAvailable(const SchedView& view, size_t proc) {
  return Account(on_available_, inner_->OnProcessorAvailable(view, proc));
}

PolicyDecision MeteredPolicy::OnRequest(const SchedView& view, JobId job) {
  return Account(on_request_, inner_->OnRequest(view, job));
}

PolicyDecision MeteredPolicy::OnQuantumExpiry(const SchedView& view, size_t proc) {
  return Account(on_quantum_, inner_->OnQuantumExpiry(view, proc));
}

PolicyDecision MeteredPolicy::OnBalanceTick(const SchedView& view) {
  return Account(on_balance_, inner_->OnBalanceTick(view));
}

}  // namespace affsched
