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
// Page coloring (the rt workloads) partitions the same cache rather than
// adding a second one. The cache is divided into `colors` equal slices
// (1..64) and an owner may hold a reservation mask of the colors it may
// occupy. Once any owner holds one, every chunk runs the same dynamics
// against reserved capacity:
//
//   * An owner's effective working set is capped by the capacity of its
//     reserved colors, so a tight reservation trades steady-state capacity
//     misses for reload isolation.
//   * Insertions evict only on the colors they can land in. A victim with
//     footprint r on n_o colors keeps r * n_sh / n_o blocks on the n_sh
//     colors it shares with the running owner (n_own colors), and the
//     n_sh / n_own share of the insertions directed there sweeps a slice of
//     capacity C * n_sh / colors. Disjoint reservations are untouched: the
//     isolation guarantee the rt-color-iso policy buys.
//   * A reservation of zero colors models a job with no cache allocation at
//     all: every touched block misses (always-cold), nothing becomes
//     resident, and no other owner is disturbed.
//
// Owners without a reservation hold every color. A colored machine reserves
// every worker in every cache when the worker is created
// (EngineCore::CreateWorker), so only unit tests run an unreserved cache of
// several colors, and it behaves exactly like one of a single color.
//
// Storage and cost: the footprints live in a Residency (residency.h), a small
// vector searched linearly, so memory grows with the owners resident here.
// Reservations are indexed by owner id (worker ids are dense from 1).
// RunChunk visits every resident owner once; Resident, EjectBlocks and the
// other per-owner calls are one scan each, and nothing is hashed.

#ifndef SRC_CACHE_FOOTPRINT_H_
#define SRC_CACHE_FOOTPRINT_H_

#include <cstdint>
#include <vector>

#include "src/cache/cache_model.h"
#include "src/cache/residency.h"

namespace affsched {

// A set of reserved cache colors, one bit per color (bit i = color i).
using ColorMask = uint64_t;

inline constexpr ColorMask kAllColors = ~0ull;

// The mask of the first `num_colors` colors.
constexpr ColorMask FullColorMask(size_t num_colors) {
  return num_colors >= 64 ? kAllColors : ((1ull << num_colors) - 1);
}

class FootprintCache final : public CacheModel {
 public:
  explicit FootprintCache(double capacity_blocks, size_t ways = 2, size_t colors = 1);

  // Maximum resident footprint a working set of `blocks` distinct blocks can
  // achieve in the whole cache (ExpectedMaxResident: Poisson set occupancy),
  // whatever the owner's reservation, so policy-side reload scoring is
  // comparable across owners. Matches the exact 2-way cache's self-conflict
  // behaviour (validated in tests).
  double MaxResident(double blocks) const override;

  // --- Page colors ------------------------------------------------------------

  // Reserves the colors in `mask` (trimmed to this cache's colors) for
  // `owner`.
  void ReserveColors(CacheOwner owner, ColorMask mask);

  // `owner`'s reservation; every color when it holds none.
  ColorMask ReservedColors(CacheOwner owner) const;

  size_t num_colors() const { return num_colors_; }

  // Capacity of one color slice, in blocks.
  double ColorCapacity() const { return capacity_ / static_cast<double>(num_colors_); }

  // Capacity of a reservation, in blocks.
  double ReservedCapacity(ColorMask mask) const;

  // The rest of the CacheModel interface, documented there.
  CacheChunkResult RunChunk(CacheOwner owner, const WorkingSetParams& ws,
                            double seconds) override;
  double Resident(CacheOwner owner) const override;
  double Occupied() const override { return resident_.occupied(); }
  double capacity() const override { return capacity_; }
  void Flush() override;
  double EjectBlocks(CacheOwner owner, double blocks) override;
  void ReplaceOwnerData(CacheOwner owner, double keep_fraction) override;

  // Test hook: force a resident footprint.
  void SetResident(CacheOwner owner, double blocks);

 private:
  double capacity_;
  uint32_t ways_;
  uint32_t num_colors_;
  Residency resident_;
  // Indexed by owner id; owners past the end hold every color. Empty until
  // the first reservation, and RunChunk reads that as "no owner is
  // reserved".
  std::vector<ColorMask> reserved_;
  MaxResidentMemo max_resident_;
  TouchFractionMemo touch_fraction_;
};

}  // namespace affsched

#endif  // SRC_CACHE_FOOTPRINT_H_
