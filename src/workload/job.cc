#include "src/workload/job.h"

#include <algorithm>

namespace affsched {

void JobStats::Accumulate(const JobStats& x) {
  useful_work_s += x.useful_work_s;
  reload_stall_s += x.reload_stall_s;
  steady_stall_s += x.steady_stall_s;
  switch_s += x.switch_s;
  waste_s += x.waste_s;
  alloc_integral_s += x.alloc_integral_s;
  reallocations += x.reallocations;
  affinity_dispatches += x.affinity_dispatches;
  for (size_t tier = 0; tier < kNumDistanceTiers; ++tier) {
    migrations[tier] += x.migrations[tier];
    steals[tier] += x.steals[tier];
  }
  reload_llc_s += x.reload_llc_s;
  reload_remote_s += x.reload_remote_s;
  balance_migrations += x.balance_migrations;
  deadline_misses += x.deadline_misses;
  tardiness_s += x.tardiness_s;
  worst_reload_s = std::max(worst_reload_s, x.worst_reload_s);
}

void JobStats::DivideBy(double n) {
  const auto count = [n](uint64_t& c) {
    c = static_cast<uint64_t>(static_cast<double>(c) / n);
  };
  useful_work_s /= n;
  reload_stall_s /= n;
  steady_stall_s /= n;
  switch_s /= n;
  waste_s /= n;
  alloc_integral_s /= n;
  count(reallocations);
  count(affinity_dispatches);
  for (size_t tier = 0; tier < kNumDistanceTiers; ++tier) {
    count(migrations[tier]);
    count(steals[tier]);
  }
  reload_llc_s /= n;
  reload_remote_s /= n;
  count(balance_migrations);
  count(deadline_misses);
  tardiness_s /= n;
}

Job::Job(JobId id, const AppProfile& profile, std::unique_ptr<ThreadGraph> graph, SimTime arrival)
    : id_(id), profile_(profile), graph_(std::move(graph)) {
  AFF_CHECK(graph_ != nullptr);
  graph_->Start();
  for (size_t node : graph_->initial_ready()) {
    ready_.push_back(ThreadRef{.node = node, .remaining = graph_->work(node)});
  }
  stats_.arrival = arrival;
}

ThreadRef Job::PopReadyThread() {
  AFF_CHECK(!ready_.empty());
  ThreadRef t = ready_.front();
  ready_.pop_front();
  return t;
}

void Job::PushPreemptedThread(ThreadRef t) {
  AFF_CHECK(t.remaining > 0);
  ready_.push_front(t);
}

size_t Job::CompleteThread(size_t node) {
  const std::vector<size_t> newly_ready = graph_->Complete(node);
  for (size_t n : newly_ready) {
    ready_.push_back(ThreadRef{.node = n, .remaining = graph_->work(n)});
  }
  return newly_ready.size();
}

}  // namespace affsched
