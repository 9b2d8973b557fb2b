// CacheModel: the contract a cache substrate meets.
//
// A cache runs a chunk of useful execution and reports reload vs.
// steady-state misses, answers and erodes a task's resident footprint, and
// models thread turnover. Two implementations meet it:
//
//   * FootprintCache (footprint.h) — the analytic working-set model every
//     simulation runs on (closed-form buildup/ejection, O(#owners) per
//     chunk, where #owners counts the owners resident in this one cache: two
//     or three on the paper's grids), optionally divided into page colors
//     (MachineConfig::num_colors, the rt workloads). The Machine holds one
//     per processor, and one per cluster as the shared LLC of a
//     hierarchical topology;
//   * ExactCacheModel (exact_model.h) — the exact per-line set-associative
//     simulation driven by synthetic reference streams: the reference the
//     analytic model is validated against, cache for cache.
//
// A cache only counts misses: Machine::ExecuteChunk decides where a reload
// miss is served from and prices it, with one formula for every machine
// shape.

#ifndef SRC_CACHE_CACHE_MODEL_H_
#define SRC_CACHE_CACHE_MODEL_H_

#include <cstddef>
#include <limits>
#include <tuple>

#include "src/cache/exact_cache.h"

namespace affsched {

// Cache-behaviour parameters of one task (one worker of an application).
struct WorkingSetParams {
  // Maximum working set, in cache blocks.
  double blocks = 0.0;
  // Time constant (seconds) of working-set buildup: u(d) = W(1-exp(-d/theta)).
  double buildup_tau_s = 0.05;
  // Steady-state miss rate, misses per second of useful execution.
  double steady_miss_per_s = 0.0;
  // Writes per second to data shared with sibling workers of the same job.
  // Under the Symmetry's invalidation-based coherency protocol each such
  // write invalidates the line in every other cache holding it, eroding
  // sibling workers' footprints (and later costing them reload misses).
  double shared_write_per_s = 0.0;
};

// Misses incurred by one chunk of useful execution, split into the paper's
// two categories: reload misses (rebuilding a footprint that was ejected or
// left on another processor — the affinity penalty) and steady-state misses
// (the application's own capacity/conflict/coherence misses).
struct CacheChunkResult {
  double reload_misses = 0.0;
  double steady_misses = 0.0;
  double TotalMisses() const { return reload_misses + steady_misses; }
};

// Expected maximum resident footprint of a working set of `blocks` distinct
// blocks in a cache of `capacity_blocks` lines organised `ways`-associative:
// with random set placement the number of the task's blocks mapping to one
// set is ~Poisson(blocks/sets) and at most `ways` can be resident, so the cap
// is sets x E[min(K, ways)]. Shared by both cache models.
double ExpectedMaxResident(double capacity_blocks, size_t ways, double blocks);

// The fraction of a working set one chunk of `seconds` touches on the
// buildup curve, 1 - exp(-seconds / tau_s) (1 when tau_s <= 0).
double TouchFraction(double seconds, double tau_s);

// One of the functions above behind a one-entry memo. A cache runs the same
// working set for many consecutive chunks, so the chunk path pays for the
// Poisson sum or the exp() only when the inputs change. The value is the
// function's own, so a memo cannot move a trajectory.
template <auto Fn, typename First, typename... Rest>
class OneEntryMemo {
 public:
  double Get(First first, Rest... rest) {
    if (std::tuple<First, Rest...>(first, rest...) != inputs_) {
      inputs_ = {first, rest...};
      value_ = Fn(first, rest...);
    }
    return value_;
  }

 private:
  // The first input starts at NaN, which equals nothing, so the first Get
  // computes (and needs no flag: the memo lives in every cache).
  std::tuple<First, Rest...> inputs_{std::numeric_limits<First>::quiet_NaN(), Rest{}...};
  double value_ = 0.0;
};

using MaxResidentMemo = OneEntryMemo<ExpectedMaxResident, double, size_t, double>;
using TouchFractionMemo = OneEntryMemo<TouchFraction, double, double>;

class CacheModel {
 public:
  virtual ~CacheModel() = default;

  // Evolves the cache as `owner` executes for `seconds` of useful time.
  virtual CacheChunkResult RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                                    double seconds) = 0;

  // Current resident footprint of `owner`, in blocks.
  virtual double Resident(CacheOwner owner) const = 0;

  // Total resident blocks across owners.
  virtual double Occupied() const = 0;

  virtual double capacity() const = 0;

  // Maximum resident footprint a working set of `blocks` can achieve here
  // (set-associative self-conflict cap).
  virtual double MaxResident(double blocks) const = 0;

  // Invalidates the entire cache (the Section 4 "migrating" treatment).
  virtual void Flush() = 0;

  // Removes up to `blocks` of `owner`'s footprint (the coherence
  // invalidations its siblings' shared writes caused) and returns the amount
  // removed, min(blocks, Resident(owner)), so no Resident query precedes it.
  virtual double EjectBlocks(CacheOwner owner, double blocks) = 0;

  // Models thread turnover within a worker: the next thread reuses only
  // `keep_fraction` of the worker's current data; the rest is dead and its
  // lines are released.
  virtual void ReplaceOwnerData(CacheOwner owner, double keep_fraction) = 0;
};

}  // namespace affsched

#endif  // SRC_CACHE_CACHE_MODEL_H_
