// Working-set "footprint" cache model.
//
// This is the cache substrate the scheduling experiments run on. Instead of
// simulating each memory reference, it tracks — per processor cache — how many
// blocks of each task's working set are resident, and evolves those footprints
// when a task executes:
//
//   * A task's references follow a working-set curve: in `d` seconds of useful
//     execution it touches u(d) = W * (1 - exp(-d / theta)) distinct blocks
//     of its working set of W blocks. If a fraction of the working set is not
//     resident (the task migrated, or an intervening task ejected its data),
//     the touched-but-absent blocks are *reload misses*:
//         reload(d) = (W_eff - f) * (1 - exp(-d / theta)),
//     where f is the current resident footprint and W_eff = min(W, capacity).
//   * W_eff = MaxResident(W): set-associative self-conflict caps how much of
//     a working set can be resident at once (Poisson occupancy per set).
//   * Independent of reloads, the task incurs *steady-state misses* at rate m
//     per second (capacity/conflict/coherence misses of its own algorithm;
//     near zero for cache-blocked MATRIX).
//   * Every insertion lands in a set that may hold another task's line, so
//     other owners' footprints decay by (1 - 1/C) per insertion — even when
//     the cache is not globally full. The running task's own recent blocks
//     are most-recently-used and modelled as protected.
//
// These dynamics reproduce the paper's Table 1 phenomenology: the penalty for
// resuming without affinity grows with rescheduling interval Q (more blocks
// touched per interval => more to reload), and the penalty *with* affinity
// also grows with Q (the intervening task runs longer and ejects more).
// The exponential-ejection approximation is validated against ExactCache in
// tests/cache/footprint_vs_exact_test.cc and bench/bench_calibration_cache.cc.
//
// Storage and cost: the footprints live in a Residency (residency.h), a small
// vector searched linearly, so memory grows with the owners resident here.
// RunChunk visits every resident owner once; Resident, EjectBlocks and the
// other per-owner calls are one scan each, and nothing is hashed.

#ifndef SRC_CACHE_FOOTPRINT_H_
#define SRC_CACHE_FOOTPRINT_H_

#include "src/cache/cache_model.h"
#include "src/cache/residency.h"

namespace affsched {

class FootprintCache final : public CacheModel {
 public:
  explicit FootprintCache(double capacity_blocks, size_t ways = 2);

  // Maximum resident footprint a working set of `blocks` distinct blocks can
  // achieve in this cache (ExpectedMaxResident: Poisson set occupancy).
  // Matches the exact 2-way cache's self-conflict behaviour (validated in
  // tests).
  double MaxResident(double blocks) const override;

  // The rest of the CacheModel interface, documented there.
  CacheChunkResult RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                            double seconds) override;
  double Resident(CacheOwner owner) const override;
  double Occupied() const override { return resident_.occupied(); }
  double capacity() const override { return capacity_; }
  void Flush() override;
  void EjectFraction(CacheOwner owner, double fraction) override;
  double EjectBlocks(CacheOwner owner, double blocks) override;
  void ReplaceOwnerData(CacheOwner owner, double keep_fraction) override;
  void RemoveOwner(CacheOwner owner) override;

  // Test hook: force a resident footprint.
  void SetResident(CacheOwner owner, double blocks);

 private:
  double capacity_;
  size_t ways_;
  Residency resident_;
  MaxResidentMemo max_resident_;
  TouchFractionMemo touch_fraction_;
};

}  // namespace affsched

#endif  // SRC_CACHE_FOOTPRINT_H_
