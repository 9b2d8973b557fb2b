#include "src/rt/static_assign.h"

#include <algorithm>
#include <numeric>

#include "src/cache/footprint.h"
#include "src/common/check.h"

namespace affsched {

std::vector<std::vector<double>> BuildCommunicationMatrix(const std::vector<RtJobInfo>& jobs) {
  const size_t n = jobs.size();
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    matrix[i][i] = jobs[i].shared_write_per_s * static_cast<double>(jobs[i].max_parallelism);
  }
  return matrix;
}

namespace {

// Planning order: urgent (deadline-bearing) jobs first by ascending deadline,
// then best-effort jobs by descending communication intensity; JobId breaks
// ties so the plan is deterministic.
std::vector<size_t> PlanningOrder(const std::vector<RtJobInfo>& jobs,
                                  const std::vector<std::vector<double>>& comm) {
  std::vector<size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const bool a_rt = jobs[a].deadline_s > 0.0;
    const bool b_rt = jobs[b].deadline_s > 0.0;
    if (a_rt != b_rt) {
      return a_rt;
    }
    if (a_rt && jobs[a].deadline_s != jobs[b].deadline_s) {
      return jobs[a].deadline_s < jobs[b].deadline_s;
    }
    if (comm[a][a] != comm[b][b]) {
      return comm[a][a] > comm[b][b];
    }
    return jobs[a].job < jobs[b].job;
  });
  return order;
}

// Equipartition-style span sizes in planning order: one processor per round,
// capped by each job's parallelism, until processors run out.
std::vector<size_t> SpanSizes(const std::vector<RtJobInfo>& jobs,
                              const std::vector<size_t>& order, size_t num_processors) {
  std::vector<size_t> span(jobs.size(), 0);
  size_t remaining = num_processors;
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (size_t idx : order) {
      if (remaining == 0) {
        break;
      }
      if (span[idx] < std::max<size_t>(1, jobs[idx].max_parallelism)) {
        ++span[idx];
        --remaining;
        progress = true;
      }
    }
  }
  return span;
}

// Disjoint color slices sized by working-set weight, >= 1 color per job while
// colors last; with more jobs than colors, jobs wrap onto single colors.
void SliceColors(const std::vector<RtJobInfo>& jobs, const std::vector<size_t>& order,
                 size_t num_colors, RtAssignment* out) {
  const size_t n = jobs.size();
  if (n >= num_colors) {
    size_t position = 0;
    for (size_t idx : order) {
      out->color_mask[jobs[idx].job] = 1ull << (position % num_colors);
      ++position;
    }
    return;
  }
  double total_weight = 0.0;
  for (const RtJobInfo& job : jobs) {
    total_weight += job.working_set_blocks > 0.0 ? job.working_set_blocks : 1.0;
  }
  std::vector<size_t> quota(n, 1);
  size_t used = n;
  for (size_t idx : order) {
    const double weight =
        jobs[idx].working_set_blocks > 0.0 ? jobs[idx].working_set_blocks : 1.0;
    const auto ideal = static_cast<size_t>(static_cast<double>(num_colors) * weight /
                                           total_weight);
    if (ideal > 1) {
      const size_t extra = std::min(ideal - 1, num_colors - used);
      quota[idx] += extra;
      used += extra;
    }
  }
  // Leftover colors (flooring) go one at a time in planning order.
  for (size_t idx : order) {
    if (used >= num_colors) {
      break;
    }
    ++quota[idx];
    ++used;
  }
  size_t next_color = 0;
  for (size_t idx : order) {
    out->color_mask[jobs[idx].job] =
        (FullColorMask(quota[idx])) << next_color;
    next_color += quota[idx];
  }
}

}  // namespace

RtAssignment ComputeStaticAssignment(const std::vector<RtJobInfo>& jobs, size_t num_processors,
                                     size_t num_colors, bool isolate_colors,
                                     const DistanceTierFn& tier) {
  RtAssignment out;
  out.proc_owner.assign(num_processors, kInvalidJobId);
  if (jobs.empty() || num_processors == 0) {
    return out;
  }

  const std::vector<std::vector<double>> comm = BuildCommunicationMatrix(jobs);
  const std::vector<size_t> order = PlanningOrder(jobs, comm);
  const std::vector<size_t> span = SpanSizes(jobs, order, num_processors);

  // Greedy placement: seed each span on the first spare processor, then grow
  // it one processor at a time toward the nearest spare (minimum distance
  // tier from the seed), so a span stays within one LLC cluster when the
  // topology has one big enough. On flat machines this degrades to
  // contiguous index ranges.
  std::vector<bool> taken(num_processors, false);
  for (size_t idx : order) {
    out.share[jobs[idx].job] = span[idx];
    if (span[idx] == 0) {
      continue;
    }
    size_t seed = num_processors;
    for (size_t p = 0; p < num_processors; ++p) {
      if (!taken[p]) {
        seed = p;
        break;
      }
    }
    if (seed == num_processors) {
      break;  // machine exhausted
    }
    taken[seed] = true;
    out.proc_owner[seed] = jobs[idx].job;
    for (size_t placed = 1; placed < span[idx]; ++placed) {
      size_t best = num_processors;
      size_t best_tier = static_cast<size_t>(-1);
      for (size_t p = 0; p < num_processors; ++p) {
        if (taken[p]) {
          continue;
        }
        const size_t t = tier ? tier(seed, p) : (seed == p ? 0 : 1);
        if (t < best_tier) {
          best_tier = t;
          best = p;
        }
      }
      if (best == num_processors) {
        break;
      }
      taken[best] = true;
      out.proc_owner[best] = jobs[idx].job;
    }
  }

  if (isolate_colors && num_colors > 0) {
    SliceColors(jobs, order, num_colors, &out);
  }
  return out;
}

}  // namespace affsched
