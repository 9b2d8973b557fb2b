// Built-in Little's-law self-check for open-system runs.
//
// Over an observation window in which every job that entered also left,
// Little's law L = lambda * W is an exact identity: the time integral of the
// number-in-system equals the sum of sojourn times. The checker maintains
// both sides independently — the integral from enter/leave edges, the sum
// from per-job sojourns the accounting layer reports — so any disagreement
// beyond float rounding indicates an accounting bug (double-counted queue
// wait, a lost completion, a job charged to the wrong window), not a
// statistical fluke. The driver runs it over the full untrimmed window and
// fails a run whose relative error exceeds kLittlesTolerance (driver.h).

#ifndef SRC_OPENSYS_LITTLES_LAW_H_
#define SRC_OPENSYS_LITTLES_LAW_H_

#include <cstddef>

#include "src/common/time.h"

namespace affsched {

struct LittlesLawResult {
  double mean_jobs_in_system = 0.0;  // L: time-average number in system
  double arrival_rate_per_s = 0.0;   // lambda: completed jobs per second
  double mean_sojourn_s = 0.0;       // W: mean sojourn of completed jobs
  double relative_error = 0.0;       // |L - lambda*W| / L (0 when L == 0)
  bool ok = false;                   // relative_error <= tolerance
};

class LittlesLawChecker {
 public:
  // A job enters the system (admitted into service or queued) at `t`.
  // Rejected arrivals never enter and must not be recorded.
  void OnEnter(SimTime t);

  // A job leaves at `t` with end-to-end sojourn `sojourn_s` (queue wait plus
  // in-service response).
  void OnLeave(SimTime t, double sojourn_s);

  size_t in_system() const { return in_system_; }
  size_t completed() const { return completed_; }

  // Evaluates both sides over [0, t_end]. Jobs still in the system at t_end
  // contribute to L but not to lambda*W, so call this only after the run
  // drains (the driver's Run() guarantees it).
  LittlesLawResult Result(SimTime t_end, double tolerance) const;

 private:
  void Advance(SimTime t);

  size_t in_system_ = 0;
  size_t completed_ = 0;
  double integral_job_s_ = 0.0;  // integral of n(t) dt, in job-seconds
  double sojourn_sum_s_ = 0.0;
  SimTime last_change_ = 0;
};

}  // namespace affsched

#endif  // SRC_OPENSYS_LITTLES_LAW_H_
