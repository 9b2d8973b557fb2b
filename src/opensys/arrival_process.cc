#include "src/opensys/arrival_process.h"

#include <cmath>

#include "src/common/check.h"

namespace affsched {

namespace {

// Picks an application index by weight; `pick` in [0, sum of weights).
size_t PickApp(const std::vector<double>& weights, double pick) {
  size_t app = 0;
  for (size_t a = 0; a < weights.size(); ++a) {
    pick -= weights[a];
    if (pick <= 0.0) {
      return a;
    }
    app = a;  // fall through to the last app on rounding
  }
  return app;
}

}  // namespace

void CheckAppWeights(const std::vector<double>& app_weights) {
  AFF_CHECK_MSG(!app_weights.empty(), "application weight vector is empty");
  double total = 0.0;
  for (size_t i = 0; i < app_weights.size(); ++i) {
    AFF_CHECK_MSG(std::isfinite(app_weights[i]), "application weight is not finite");
    AFF_CHECK_MSG(app_weights[i] >= 0.0, "application weight is negative");
    total += app_weights[i];
  }
  AFF_CHECK_MSG(total > 0.0, "application weights sum to zero: every job class has weight 0");
}

PoissonProcess::PoissonProcess(SimDuration mean_interarrival, std::vector<double> app_weights)
    : mean_interarrival_(mean_interarrival), app_weights_(std::move(app_weights)) {
  AFF_CHECK_MSG(mean_interarrival_ > 0, "mean inter-arrival time must be positive");
  CheckAppWeights(app_weights_);
  total_weight_ = 0.0;
  for (double w : app_weights_) {
    total_weight_ += w;
  }
}

void PoissonProcess::Reset(uint64_t seed) {
  rng_ = Rng(seed);
  now_ = 0;
}

bool PoissonProcess::Next(ArrivalPlanEntry* out) {
  now_ += Seconds(rng_.NextExponential(ToSeconds(mean_interarrival_)));
  out->when = now_;
  out->app_index = PickApp(app_weights_, rng_.NextDouble() * total_weight_);
  return true;
}

OnOffProcess::OnOffProcess(const Params& params, std::vector<double> app_weights)
    : params_(params), app_weights_(std::move(app_weights)) {
  AFF_CHECK_MSG(params_.on_interarrival > 0, "on-phase inter-arrival time must be positive");
  AFF_CHECK_MSG(params_.mean_on > 0, "mean on-phase duration must be positive");
  AFF_CHECK_MSG(params_.mean_off > 0, "mean off-phase duration must be positive");
  CheckAppWeights(app_weights_);
  total_weight_ = 0.0;
  for (double w : app_weights_) {
    total_weight_ += w;
  }
}

void OnOffProcess::Reset(uint64_t seed) {
  rng_ = Rng(seed);
  now_ = 0;
  on_ = true;
  phase_end_ = Seconds(rng_.NextExponential(ToSeconds(params_.mean_on)));
}

bool OnOffProcess::Next(ArrivalPlanEntry* out) {
  for (;;) {
    if (!on_) {
      // Silence: jump to the end of the off phase and start a new burst.
      now_ = phase_end_;
      on_ = true;
      phase_end_ = now_ + Seconds(rng_.NextExponential(ToSeconds(params_.mean_on)));
      continue;
    }
    const SimDuration gap = Seconds(rng_.NextExponential(ToSeconds(params_.on_interarrival)));
    if (now_ + gap <= phase_end_) {
      now_ += gap;
      out->when = now_;
      out->app_index = PickApp(app_weights_, rng_.NextDouble() * total_weight_);
      return true;
    }
    // The draw crossed the burst boundary: the exponential is memoryless, so
    // discard it, enter the off phase, and re-draw there.
    now_ = phase_end_;
    on_ = false;
    phase_end_ = now_ + Seconds(rng_.NextExponential(ToSeconds(params_.mean_off)));
  }
}

std::vector<ArrivalPlanEntry> GenerateArrivals(ArrivalProcess& process, uint64_t seed,
                                               size_t max_count, SimTime t_end) {
  AFF_CHECK_MSG(max_count > 0 || t_end > 0, "unbounded generation: set max_count or t_end");
  process.Reset(seed);
  std::vector<ArrivalPlanEntry> plan;
  if (max_count > 0) {
    plan.reserve(max_count);
  }
  ArrivalPlanEntry entry;
  while ((max_count == 0 || plan.size() < max_count) && process.Next(&entry)) {
    if (t_end > 0 && entry.when >= t_end) {
      break;  // the first arrival past the horizon is discarded
    }
    plan.push_back(entry);
  }
  return plan;
}

std::vector<ArrivalPlanEntry> PoissonArrivals(size_t count, SimDuration mean_interarrival,
                                              const std::vector<double>& app_weights,
                                              uint64_t seed) {
  PoissonProcess process(mean_interarrival, app_weights);
  return GenerateArrivals(process, seed, count, /*t_end=*/0);
}

}  // namespace affsched
