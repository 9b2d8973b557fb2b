// Admission control for the open-system driver.
//
// An AdmissionController sits between the arrival stream and the allocator:
// each arrival is admitted into service, held in a FIFO admission queue, or
// rejected outright (load shedding). The driver accounts queue wait
// separately from in-service response time, so the admission rule's effect
// on sojourn decomposes cleanly.
//
// One rule with two parameters, the multiprogramming-level cap `mpl_cap` and
// the admission-queue bound `max_queue`:
//   * mpl_cap == 0 admits every arrival (the allocator itself multiplexes);
//     max_queue plays no part. Named "unbounded".
//   * mpl_cap > 0 admits while fewer than mpl_cap jobs are in service. An
//     arrival that finds the cap reached queues FIFO, unless max_queue >= 0
//     and max_queue jobs are already queued, in which case it is rejected.
//     Named "mpl-N" when max_queue < 0 (the queue is unbounded) and
//     "shed-N-qM" otherwise.

#ifndef SRC_OPENSYS_ADMISSION_H_
#define SRC_OPENSYS_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace affsched {

enum class AdmissionVerdict {
  kAdmit,   // enter service now
  kQueue,   // wait in the FIFO admission queue
  kReject,  // drop; the job never enters the system
};

class AdmissionController {
 public:
  AdmissionController(size_t mpl_cap, int64_t max_queue);

  // Verdict for a new arrival, given current occupancy: `in_service` jobs
  // admitted and not yet complete, `queued` jobs waiting in the admission
  // queue. Called once per arrival.
  AdmissionVerdict OnArrival(size_t in_service, size_t queued) const;

  // True if a queued job may enter service given `in_service` occupancy.
  // Consulted on each departure.
  bool CanAdmitQueued(size_t in_service) const;

  // Short identifier for JSON and logs: "unbounded", "mpl-N" or "shed-N-qM".
  std::string Name() const;

 private:
  size_t mpl_cap_;
  int64_t max_queue_;
};

// The controller for a spec's (mpl_cap, max_queue) pair.
std::unique_ptr<AdmissionController> MakeAdmissionController(size_t mpl_cap, int64_t max_queue);

}  // namespace affsched

#endif  // SRC_OPENSYS_ADMISSION_H_
