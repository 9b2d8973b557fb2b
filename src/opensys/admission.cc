#include "src/opensys/admission.h"

namespace affsched {

AdmissionController::AdmissionController(size_t mpl_cap, int64_t max_queue)
    : mpl_cap_(mpl_cap), max_queue_(max_queue) {}

AdmissionVerdict AdmissionController::OnArrival(size_t in_service, size_t queued) const {
  if (CanAdmitQueued(in_service)) {
    return AdmissionVerdict::kAdmit;
  }
  return max_queue_ >= 0 && queued >= static_cast<size_t>(max_queue_)
             ? AdmissionVerdict::kReject
             : AdmissionVerdict::kQueue;
}

bool AdmissionController::CanAdmitQueued(size_t in_service) const {
  return mpl_cap_ == 0 || in_service < mpl_cap_;
}

std::string AdmissionController::Name() const {
  if (mpl_cap_ == 0) {
    return "unbounded";
  }
  const std::string mpl = std::to_string(mpl_cap_);
  return max_queue_ < 0 ? "mpl-" + mpl : "shed-" + mpl + "-q" + std::to_string(max_queue_);
}

std::unique_ptr<AdmissionController> MakeAdmissionController(size_t mpl_cap, int64_t max_queue) {
  return std::make_unique<AdmissionController>(mpl_cap, max_queue);
}

}  // namespace affsched
